"""Type inference for first-class polymorphism via frozen variables.

The package exposes the surface language (parser, inference, declarative
oracle), the explicitly typed System F core, and the translations
between the two.
"""

from .declcheck import check_typing, match_instance, replay
from .infer import InferResult, check_program, gen, infer, infer_top, split
from .parser import parse_program, parse_term, parse_type, render_term, render_type
from .prelude import build_prelude
from .statics import env_wf, kind_of, wellscoped
from .subst import Subst, demote, inst_wf, subst_wf
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
    from_systemf,
    ground_derivation,
    rebuild_derivation,
    to_systemf,
)
from .unify import unify

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
    "demote",
    "desugar",
    "env_wf",
    "f_let",
    "f_typecheck",
    "from_systemf",
    "ftv_ordered",
    "gen",
    "ground_derivation",
    "infer",
    "infer_top",
    "inst_wf",
    "kind_of",
    "match_instance",
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
    "subst_wf",
    "to_systemf",
    "unify",
    "wellscoped",
]
