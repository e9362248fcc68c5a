"""Declarative typing oracle.

Whether a term has a given type is decided by running inference and
asking whether the candidate is a kind-respecting instance of the
inferred result; completeness of inference makes this equivalent to the
declarative rules while sidestepping their non-inductive principality
side condition.

A direct rule-walker over recorded derivations (without the principality
premise) is also provided; the translation to the explicit core replays
derivations through it.
"""

from __future__ import annotations

from typing import Optional

from .infer import (
    DApp,
    DFreeze,
    DLam,
    DLamAnn,
    DLet,
    DLetAnn,
    DLit,
    DVar,
    Derivation,
    InferError,
    check_program,
    gen,
    term_of_derivation,
)
from .statics import StaticsError, check_kind, kind_of, split
from .subst import Subst, inst_wf
from .syntax import (
    Con,
    Forall,
    Kind,
    KindEnv,
    NameSupply,
    RefinedKindEnv,
    TVar,
    Term,
    Type,
    TypeEnv,
    all_type_names,
    alpha_eq,
    arrow,
    decompose,
    foralls,
    ftv_ordered,
    is_monotype,
    t_bool,
    t_int,
)


def match_instance(
    delta: KindEnv,
    theta_res: RefinedKindEnv,
    pattern: Type,
    target: Type,
) -> Optional[Subst]:
    """One-way matching: a substitution over `theta_res` sending `pattern`
    to `target`, respecting kinds, or None.

    Monomorphic slots only accept monotypes.  Quantifiers match
    positionally: both bodies are opened with a common fresh variable
    which must not leak into any image.
    """
    avoid = set(theta_res.names()) | set(delta.names())
    avoid |= all_type_names(pattern) | all_type_names(target)
    supply = NameSupply(avoid)
    bindings: dict[str, Type] = {}

    def go(pat: Type, tgt: Type, skolems: frozenset[str]) -> bool:
        if isinstance(pat, TVar) and pat.name in theta_res:
            if pat.name in bindings:
                return alpha_eq(bindings[pat.name], tgt)
            if set(ftv_ordered(tgt)) & skolems:
                return False
            if theta_res.lookup(pat.name) is Kind.MONO and not is_monotype(tgt):
                return False
            bindings[pat.name] = tgt
            return True
        if isinstance(pat, TVar):
            return isinstance(tgt, TVar) and tgt.name == pat.name
        if isinstance(pat, Con):
            if not isinstance(tgt, Con) or tgt.con != pat.con:
                return False
            return all(go(p, t, skolems) for p, t in zip(pat.args, tgt.args))
        if isinstance(pat, Forall):
            if not isinstance(tgt, Forall):
                return False
            skolem = supply.fresh()
            open_pat = Subst({pat.var: TVar(skolem)}).apply(pat.body)
            open_tgt = Subst({tgt.var: TVar(skolem)}).apply(tgt.body)
            return go(open_pat, open_tgt, skolems | {skolem})
        raise TypeError(f"not a type: {pat!r}")

    if not go(pattern, target, frozenset()):
        return None
    # Total over theta_res: unconstrained variables are grounded.
    full = {name: bindings.get(name, t_int) for name, _ in theta_res}
    return Subst(full)


def check_typing(
    delta: KindEnv, gamma: TypeEnv, m: Term, candidate: Type
) -> bool:
    """Decide whether `m` has type `candidate` under `delta`; `gamma`.

    Inference failure means no type is derivable at all; otherwise the
    candidate must be an instance of the inferred result, obtained by a
    kind-respecting substitution of the residual flexible variables.
    """
    check_kind(delta, candidate, Kind.POLY)
    try:
        result = check_program(delta, gamma, m)
    except InferError:
        return False
    return match_instance(delta, result.env, result.ty, candidate) is not None


# ---------------------------------------------------------------------------
# Derivation replay: the typing rules minus the principality premise
# ---------------------------------------------------------------------------

class ReplayError(Exception):
    pass


def _fail(node: Derivation, reason: str) -> None:
    raise ReplayError(f"{type(node).__name__}: {reason}")


def replay(delta: KindEnv, gamma: TypeEnv, d: Derivation) -> Type:
    """Re-derive the typing judgement recorded in `d`, rule by rule.

    Returns the root type on success; raises ReplayError when any node
    fails its rule's premises.  The principality premise of the plain
    let rule is deliberately not checked (it is not needed for recursion
    over derivations).
    """
    if isinstance(d, DFreeze):
        scheme = gamma.lookup(d.name)
        if scheme is None:
            _fail(d, f"unbound variable {d.name!r}")
        if not alpha_eq(scheme, d.ty):
            _fail(d, f"recorded type differs from environment entry for {d.name!r}")
        return d.ty

    if isinstance(d, DVar):
        scheme = gamma.lookup(d.name)
        if scheme is None:
            _fail(d, f"unbound variable {d.name!r}")
        prefix, guarded = decompose(scheme)
        if prefix != d.prefix:
            _fail(d, "recorded prefix differs from environment entry")
        if len(d.inst) != len(prefix):
            _fail(d, "instantiation arity mismatch")
        inst = Subst(dict(zip(prefix, d.inst)))
        # The scheme binds its prefix, which may share a name with a rigid
        # variable in scope (an annotation's `a` against the prelude's);
        # rename the prefix apart before checking the instantiation.
        apart = NameSupply(delta.names() + prefix).fresh_many(len(prefix))
        renamed = Subst(dict(zip(apart, d.inst)))
        if prefix and not inst_wf(delta, renamed, KindEnv(apart), Kind.POLY, KindEnv()):
            _fail(d, "instantiation not well-formed")
        if not alpha_eq(inst.apply(guarded), d.ty):
            _fail(d, "recorded type is not the recorded instantiation's image")
        return d.ty

    if isinstance(d, DLit):
        expected = t_bool if isinstance(d.value, bool) else t_int
        if d.ty != expected:
            _fail(d, "literal type mismatch")
        return d.ty

    if isinstance(d, DLam):
        try:
            if kind_of(delta, d.arg_ty) is not Kind.MONO:
                _fail(d, "unannotated parameter must be monomorphic")
        except StaticsError as err:
            _fail(d, str(err))
        body_ty = replay(delta, gamma.extend(d.var, d.arg_ty), d.body)
        if not alpha_eq(d.ty, arrow(d.arg_ty, body_ty)):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLamAnn):
        try:
            check_kind(delta, d.ann, Kind.POLY)
        except StaticsError as err:
            _fail(d, str(err))
        body_ty = replay(delta, gamma.extend(d.var, d.ann), d.body)
        if not alpha_eq(d.ty, arrow(d.ann, body_ty)):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DApp):
        fn_ty = replay(delta, gamma, d.fn)
        arg_ty = replay(delta, gamma, d.arg)
        if not (isinstance(fn_ty, Con) and fn_ty.con.name == "->"):
            _fail(d, "function position does not have an arrow type")
        if not alpha_eq(fn_ty.args[0], arg_ty):
            _fail(d, "argument type mismatch")
        if not alpha_eq(fn_ty.args[1], d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLet):
        bound_term = term_of_derivation(d.bound)
        prefix, generalisable = gen(delta.names(), d.bound.ty, bound_term)
        if d.gen_prefix != prefix:
            _fail(d, "recorded abstraction prefix disagrees with gen")
        replay(delta.extend(*generalisable), gamma, d.bound)
        if prefix:
            if not alpha_eq(d.var_ty, foralls(prefix, d.bound.ty)):
                _fail(d, "binder type is not the generalised bound type")
        else:
            # Non-generalising branch: binder type must be a monomorphic
            # instantiation of the bound type's generalisable variables.
            theta_like = RefinedKindEnv((v, Kind.MONO) for v in generalisable)
            if match_instance(delta, theta_like, d.bound.ty, d.var_ty) is None:
                _fail(d, "binder type is not a monomorphic instance")
        body_ty = replay(delta, gamma.extend(d.var, d.var_ty), d.body)
        if not alpha_eq(body_ty, d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLetAnn):
        bound_term = term_of_derivation(d.bound)
        try:
            check_kind(delta, d.ann, Kind.POLY)
        except StaticsError as err:
            _fail(d, str(err))
        prefix, split_ty = split(d.ann, bound_term)
        if prefix != d.split_prefix:
            _fail(d, "recorded split prefix disagrees with split")
        if set(prefix) & set(delta.names()):
            _fail(d, "annotation rebinds a type variable already in scope")
        bound_ty = replay(delta.extend(*prefix), gamma, d.bound)
        if not alpha_eq(bound_ty, split_ty):
            _fail(d, "bound type differs from the annotation's body")
        body_ty = replay(delta, gamma.extend(d.var, d.ann), d.body)
        if not alpha_eq(body_ty, d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    raise TypeError(f"not a derivation: {d!r}")
