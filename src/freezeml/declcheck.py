"""Declarative typing oracle.

Whether a term has a given type is decided by running inference and
asking whether the candidate is a kind-respecting instance of the
inferred result; completeness of inference makes this equivalent to the
declarative rules while sidestepping their non-inductive principality
side condition.  The instance test is unification against a rigid
target, run in the same :class:`freezeml.unify.Store` that inference
uses, so kinds, quantifiers and skolem escape are checked in one place.

A direct rule-walker over recorded derivations (without the principality
premise) is also provided; the translation to the explicit core replays
derivations through it.
"""

from __future__ import annotations

from typing import NoReturn, Optional

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
from .subst import instantiate, substitute
from .syntax import (
    Con,
    Kind,
    KindEnv,
    NameSupply,
    Scope,
    TVar,
    Term,
    Type,
    TypeEnv,
    Walk,
    alpha_eq,
    arrow,
    decompose,
    foralls,
    ftv_ordered,
    names,
    t_int,
    trampoline,
)
from .unify import Store, UnifyError


def match_instance(
    delta: KindEnv,
    theta_res: dict[str, Kind],
    pattern: Type,
    target: Type,
) -> Optional[dict[str, Type]]:
    """One-way matching: a substitution over `theta_res` sending `pattern`
    to `target`, respecting kinds, or None.

    Matching is unification against a rigid target: one
    :class:`freezeml.unify.Store` holds the target's free variables as
    rigid next to `delta`, and `theta_res` as the flexible ones, so the
    store's kind and skolem checks decide the match.  A variable of
    `theta_res` free in the target is renamed apart in the pattern
    first, so that the target's occurrence of it stays rigid.  The
    target is rigid, so each image is a subterm of it, with no links.
    """
    supply = NameSupply(
        (*theta_res, *delta.names(), *names(pattern, target)[1])
    )
    free = ftv_ordered(target)
    renamed = {n: supply.fresh() for n in theta_res if n in free}
    if renamed:
        pattern = substitute({n: TVar(m) for n, m in renamed.items()}, pattern)
    flexible = {renamed.get(n, n): kind for n, kind in theta_res.items()}
    store = Store(delta.extend(*free), flexible, supply)
    try:
        store.unify(pattern, target)
    except UnifyError:
        return None
    # Total over theta_res: unconstrained variables are grounded.
    return {n: store.images.get(renamed.get(n, n), t_int) for n in theta_res}


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


def _fail(node: Derivation, reason: str) -> NoReturn:
    raise ReplayError(f"{type(node).__name__}: {reason}")


def _kind(delta: KindEnv, node: Derivation, a: Type, reason: str = "") -> Kind:
    """The kind of `a` under `delta`; without one, `node` fails with
    `reason`, or with the kinding error's own message."""
    try:
        return kind_of(delta, a)
    except StaticsError as err:
        _fail(node, reason or str(err))


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
    it after.  One memo, made for this call and passed down the walk,
    builds each distinct instance of a scheme once (see
    :func:`freezeml.subst.instantiate`); its values hold the scheme and
    images its keys name.  It shares construction, never verdicts: every
    Var node still has its arity against its scheme's prefix in Γ and
    its images checked, and its instance compared with its own recorded
    type.
    """
    scope, memo = Scope(gamma), {}
    return _replay_leaf(delta, scope, d, memo) or trampoline(_replay(delta, scope, d, memo))


def _replay_leaf(delta: KindEnv, gamma: Scope, d: Derivation, memo: dict) -> Optional[Type]:
    """The type of a leaf `d` by its rule; None for any other node."""
    if isinstance(d, (DFreeze, DVar)):
        scheme = gamma.lookup(d.name)
        if scheme is None:
            _fail(d, f"unbound variable {d.name!r}")
        if isinstance(d, DFreeze):
            if not alpha_eq(scheme, d.ty):
                _fail(d, f"recorded type differs from environment entry for {d.name!r}")
            return d.ty
        if len(d.inst) != len(decompose(scheme)[0]):
            _fail(d, "instantiation arity mismatch")
        # Every image must have a kind under delta, and any kind will do:
        # the prefix is polymorphic.  The scheme binds its own prefix, so a
        # prefix variable named like a rigid one in scope (an annotation's
        # `a` against the prelude's) takes no part in the check.
        for image in d.inst:
            _kind(delta, d, image, "instantiation not well-formed")
        if not alpha_eq(instantiate(scheme, d.inst, memo), d.ty):
            _fail(d, "recorded type is not the recorded instantiation's image")
        return d.ty

    if isinstance(d, DLit):
        if d.ty != d.type:
            _fail(d, "literal type mismatch")
        return d.ty
    return None


def _replay(delta: KindEnv, gamma: Scope, d: Derivation, memo: dict) -> Walk:
    if isinstance(d, (DLam, DLamAnn)):
        if isinstance(d, DLamAnn):
            arg_ty = d.ann
            _kind(delta, d, arg_ty)
        else:
            arg_ty = d.arg_ty
            if _kind(delta, d, arg_ty) is not Kind.MONO:
                _fail(d, "unannotated parameter must be monomorphic")
        gamma.push(d.var, arg_ty)
        body_ty = _replay_leaf(delta, gamma, d.body, memo) or (
            yield _replay(delta, gamma, d.body, memo)
        )
        gamma.pop(d.var)
        if not alpha_eq(d.ty, arrow(arg_ty, body_ty)):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DApp):
        fn_ty = _replay_leaf(delta, gamma, d.fn, memo) or (
            yield _replay(delta, gamma, d.fn, memo)
        )
        arg_ty = _replay_leaf(delta, gamma, d.arg, memo) or (
            yield _replay(delta, gamma, d.arg, memo)
        )
        if not (isinstance(fn_ty, Con) and fn_ty.con.name == "->"):
            _fail(d, "function position does not have an arrow type")
        if not alpha_eq(fn_ty.args[0], arg_ty):
            _fail(d, "argument type mismatch")
        if not alpha_eq(fn_ty.args[1], d.ty):
            _fail(d, "result type mismatch")
        return d.ty

    if isinstance(d, DLet):
        prefix, generalisable = gen(delta, d.bound.ty, d.bound)
        if d.gen_prefix != prefix:
            _fail(d, "recorded abstraction prefix disagrees with gen")
        inner = delta.extend(*generalisable)
        if _replay_leaf(inner, gamma, d.bound, memo) is None:
            yield _replay(inner, gamma, d.bound, memo)
        if prefix:
            if not alpha_eq(d.var_ty, foralls(prefix, d.bound.ty)):
                _fail(d, "binder type is not the generalised bound type")
        else:
            # Non-generalising branch: binder type must be a monomorphic
            # instantiation of the bound type's generalisable variables.
            theta_like = dict.fromkeys(generalisable, Kind.MONO)
            if match_instance(delta, theta_like, d.bound.ty, d.var_ty) is None:
                _fail(d, "binder type is not a monomorphic instance")
        var_ty = d.var_ty
    elif isinstance(d, DLetAnn):
        _kind(delta, d, d.ann)
        prefix, split_ty = split(d.ann, d.bound)
        if prefix != d.split_prefix:
            _fail(d, "recorded split prefix disagrees with split")
        if any(name in delta for name in prefix):
            _fail(d, "annotation rebinds a type variable already in scope")
        inner = delta.extend(*prefix)
        bound_ty = _replay_leaf(inner, gamma, d.bound, memo) or (
            yield _replay(inner, gamma, d.bound, memo)
        )
        if not alpha_eq(bound_ty, split_ty):
            _fail(d, "bound type differs from the annotation's body")
        var_ty = d.ann
    else:
        raise TypeError(f"not a derivation: {d!r}")
    gamma.push(d.var, var_ty)
    body_ty = _replay_leaf(delta, gamma, d.body, memo) or (
        yield _replay(delta, gamma, d.body, memo)
    )
    gamma.pop(d.var)
    if not alpha_eq(body_ty, d.ty):
        _fail(d, "result type mismatch")
    return d.ty
