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
)
from .statics import StaticsError, kind_of, split
from .subst import substitute
from .syntax import (
    Con,
    Forall,
    Kind,
    KindEnv,
    NameSupply,
    Scope,
    TVar,
    Term,
    Type,
    TypeEnv,
    alpha_eq,
    arrow,
    decompose,
    foralls,
    ftv_ordered,
    is_monotype,
    names,
    t_int,
)


def match_instance(
    delta: KindEnv,
    theta_res: dict[str, Kind],
    pattern: Type,
    target: Type,
) -> Optional[dict[str, Type]]:
    """One-way matching: a substitution over `theta_res` sending `pattern`
    to `target`, respecting kinds, or None.

    Monomorphic slots only accept monotypes.  Quantifiers match
    positionally: both bodies are opened with a common fresh variable
    which must not leak into any image.
    """
    supply = NameSupply(
        (*theta_res, *delta.names(), *names(pattern, target)[1])
    )
    bindings: dict[str, Type] = {}

    def go(pat: Type, tgt: Type, skolems: frozenset[str]) -> bool:
        if isinstance(pat, TVar) and pat.name in theta_res:
            if pat.name in bindings:
                return alpha_eq(bindings[pat.name], tgt)
            if not skolems.isdisjoint(ftv_ordered(tgt)):
                return False
            if theta_res[pat.name] is Kind.MONO and not is_monotype(tgt):
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
            open_pat = substitute({pat.var: TVar(skolem)}, pat.body)
            open_tgt = substitute({tgt.var: TVar(skolem)}, tgt.body)
            return go(open_pat, open_tgt, skolems | {skolem})
        raise TypeError(f"not a type: {pat!r}")

    if not go(pattern, target, frozenset()):
        return None
    # Total over theta_res: unconstrained variables are grounded.
    return {name: bindings.get(name, t_int) for name in theta_res}


def check_typing(
    delta: KindEnv, gamma: TypeEnv, m: Term, candidate: Type
) -> bool:
    """Decide whether `m` has type `candidate` under `delta`; `gamma`.

    Inference failure means no type is derivable at all; otherwise the
    candidate must be an instance of the inferred result, obtained by a
    kind-respecting substitution of the residual flexible variables.
    """
    kind_of(delta, candidate)  # raises unless well-formed
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
    over derivations).  The Var rule's instantiation is well-formed
    exactly when each image has a kind under `delta`, so it is checked
    image by image with :func:`freezeml.statics.kind_of`.

    Γ is held in one :class:`freezeml.syntax.Scope` for the walk, built
    from `gamma`: each binder pushes its variable for its body and pops
    it after.
    """
    return _replay(delta, Scope(gamma), d)


def _replay(delta: KindEnv, gamma: Scope, d: Derivation) -> Type:
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
        # Every image must have a kind under delta, and any kind will do:
        # the prefix is polymorphic.  The scheme binds its own prefix, so a
        # prefix variable named like a rigid one in scope (an annotation's
        # `a` against the prelude's) takes no part in the check.
        for image in d.inst:
            try:
                kind_of(delta, image)
            except StaticsError:
                _fail(d, "instantiation not well-formed")
        if not alpha_eq(substitute(dict(zip(prefix, d.inst)), guarded), d.ty):
            _fail(d, "recorded type is not the recorded instantiation's image")
        return d.ty

    if isinstance(d, DLit):
        if d.ty != d.type:
            _fail(d, "literal type mismatch")
        return d.ty

    if isinstance(d, DLam):
        try:
            if kind_of(delta, d.arg_ty) is not Kind.MONO:
                _fail(d, "unannotated parameter must be monomorphic")
        except StaticsError as err:
            _fail(d, str(err))
        body_ty = _replay(delta, gamma.push(d.var, d.arg_ty), d.body)
        gamma.pop(d.var)
        if not alpha_eq(d.ty, arrow(d.arg_ty, body_ty)):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLamAnn):
        try:
            kind_of(delta, d.ann)
        except StaticsError as err:
            _fail(d, str(err))
        body_ty = _replay(delta, gamma.push(d.var, d.ann), d.body)
        gamma.pop(d.var)
        if not alpha_eq(d.ty, arrow(d.ann, body_ty)):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DApp):
        fn_ty = _replay(delta, gamma, d.fn)
        arg_ty = _replay(delta, gamma, d.arg)
        if not (isinstance(fn_ty, Con) and fn_ty.con.name == "->"):
            _fail(d, "function position does not have an arrow type")
        if not alpha_eq(fn_ty.args[0], arg_ty):
            _fail(d, "argument type mismatch")
        if not alpha_eq(fn_ty.args[1], d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLet):
        prefix, generalisable = gen(delta.names(), d.bound.ty, d.bound)
        if d.gen_prefix != prefix:
            _fail(d, "recorded abstraction prefix disagrees with gen")
        _replay(delta.extend(*generalisable), gamma, d.bound)
        if prefix:
            if not alpha_eq(d.var_ty, foralls(prefix, d.bound.ty)):
                _fail(d, "binder type is not the generalised bound type")
        else:
            # Non-generalising branch: binder type must be a monomorphic
            # instantiation of the bound type's generalisable variables.
            theta_like = dict.fromkeys(generalisable, Kind.MONO)
            if match_instance(delta, theta_like, d.bound.ty, d.var_ty) is None:
                _fail(d, "binder type is not a monomorphic instance")
        body_ty = _replay(delta, gamma.push(d.var, d.var_ty), d.body)
        gamma.pop(d.var)
        if not alpha_eq(body_ty, d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLetAnn):
        try:
            kind_of(delta, d.ann)
        except StaticsError as err:
            _fail(d, str(err))
        prefix, split_ty = split(d.ann, d.bound)
        if prefix != d.split_prefix:
            _fail(d, "recorded split prefix disagrees with split")
        if set(prefix) & set(delta.names()):
            _fail(d, "annotation rebinds a type variable already in scope")
        bound_ty = _replay(delta.extend(*prefix), gamma, d.bound)
        if not alpha_eq(bound_ty, split_ty):
            _fail(d, "bound type differs from the annotation's body")
        body_ty = _replay(delta, gamma.push(d.var, d.ann), d.body)
        gamma.pop(d.var)
        if not alpha_eq(body_ty, d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    raise TypeError(f"not a derivation: {d!r}")
