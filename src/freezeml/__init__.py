"""Type inference for first-class polymorphism via frozen variables.

The package exposes the surface language (parser, inference, declarative
oracle), the explicitly typed System F core, and the translations
between the two.  The submodules ``freezeml.infer`` and
``freezeml.unify`` hold the inference and unification entry points.
"""

from .declcheck import check_typing, match_instance, replay
from .infer import InferResult, check_program, gen, infer_top, split
from .parser import (
    normalize_type_names,
    parse_program,
    parse_term,
    parse_type,
    render_term,
    render_type,
)
from .prelude import build_prelude
from .statics import env_wf, kind_of, wellscoped
from .subst import Subst, substitute
from .syntax import (
    Kind,
    KindEnv,
    NameSupply,
    RefinedKindEnv,
    Term,
    Type,
    TypeEnv,
    alpha_eq,
    classify,
    desugar,
    ftv_ordered,
)
from .systemf import FTerm, f_let, f_typecheck, parse_fterm, render_fterm
from .translate import (
    elaborate,
    from_systemf,
    ground_derivation,
    rebuild_derivation,
    to_systemf,
)

__all__ = [
    "Kind",
    "KindEnv",
    "NameSupply",
    "RefinedKindEnv",
    "Subst",
    "Term",
    "Type",
    "TypeEnv",
    "FTerm",
    "InferResult",
    "alpha_eq",
    "build_prelude",
    "check_program",
    "check_typing",
    "classify",
    "desugar",
    "elaborate",
    "env_wf",
    "f_let",
    "f_typecheck",
    "from_systemf",
    "ftv_ordered",
    "gen",
    "ground_derivation",
    "infer_top",
    "kind_of",
    "match_instance",
    "normalize_type_names",
    "parse_fterm",
    "parse_program",
    "parse_term",
    "parse_type",
    "rebuild_derivation",
    "render_fterm",
    "render_term",
    "render_type",
    "replay",
    "split",
    "substitute",
    "to_systemf",
    "wellscoped",
]
