"""Kinding, environment well-formedness, and well-scopedness of terms.

The kinding judgement assigns each type its minimal kind: a variable
gets its environment kind, a constructor application the join of its
arguments' kinds, and a quantified type is always polymorphic (binding
its variable monomorphically).  A type checks against kind K when its
minimal kind is at most K in the order mono <= poly (the upcast rule),
so a type is well formed exactly when :func:`kind_of` returns.
"""

from __future__ import annotations

from typing import Protocol

from .syntax import (
    Con,
    Forall,
    App,
    Freeze,
    Kind,
    KindEnv,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Lit,
    Span,
    Term,
    TVar,
    Type,
    TypeEnv,
    Var,
    decompose,
    ftv_ordered,
    is_gval,
)


class KindingEnv(Protocol):
    """Anything that maps a type-variable name to its kind, or to None."""

    def lookup(self, name: str) -> Kind | None: ...


class StaticsError(Exception):
    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.message = message
        self.span = span


class UnboundTyVar(StaticsError):
    def __init__(self, name: str, span: Span | None = None):
        super().__init__(f"unbound type variable {name!r}", span)
        self.name = name


class KindArityError(StaticsError):
    pass


class PolyVarInEnv(StaticsError):
    def __init__(self, var: str, tyvar: str):
        super().__init__(
            f"type of {var!r} mentions polymorphic-kinded variable {tyvar!r}"
        )
        self.var = var
        self.tyvar = tyvar


def kind_of(env: KindingEnv, a: Type, bound: frozenset[str] = frozenset()) -> Kind:
    """Minimal kind of `a`; raises on unbound variables or bad arities.

    The names in `bound` are quantifier binders in scope: each is
    monomorphic and shadows `env`.
    """
    if isinstance(a, TVar):
        kind = Kind.MONO if a.name in bound else env.lookup(a.name)
        if kind is None:
            raise UnboundTyVar(a.name)
        return kind
    if isinstance(a, Con):
        if len(a.args) != a.con.arity:
            raise KindArityError(
                f"{a.con.name} expects {a.con.arity} arguments, got {len(a.args)}"
            )
        kind = Kind.MONO
        for arg in a.args:
            kind = kind.join(kind_of(env, arg, bound))
        return kind
    if isinstance(a, Forall):
        kind_of(env, a.body, bound | {a.var})  # any kind upcasts to poly
        return Kind.POLY
    raise TypeError(f"not a type: {a!r}")


def env_wf(theta: KindingEnv, gamma: TypeEnv) -> None:
    """Every binding must be well-kinded with monomorphic free variables.

    Rigid variables count as monomorphic; a free variable of poly kind
    in the environment would let inference guess polymorphism.
    """
    for var, ty in gamma:
        kind_of(theta, ty)  # raises unless well-formed
        for tv in ftv_ordered(ty):
            if theta.lookup(tv) is not Kind.MONO:
                raise PolyVarInEnv(var, tv)


def split(a: Type, m: Term) -> tuple[tuple[str, ...], Type]:
    """Split an annotation into the quantifier prefix bound in the body.

    For a guarded value all top-level quantifiers come from
    generalisation, so they scope over the bound term; otherwise all
    polymorphism must originate from the term itself and nothing is
    peeled.
    """
    if is_gval(m):
        return decompose(a)
    return (), a


def wellscoped(delta: KindEnv, m: Term) -> None:
    """Check that annotations are well-kinded and respect variable scoping.

    Annotated lambdas check their annotation without binding anything;
    annotated lets bind the split-off quantifier prefix over the bound
    term only.  Terms must be desugared first.
    """
    if isinstance(m, (Var, Freeze, Lit)):
        return
    if isinstance(m, Lam):
        wellscoped(delta, m.body)
        return
    if isinstance(m, LamAnn):
        _check_annotation(delta, m.ann, m.span)
        wellscoped(delta, m.body)
        return
    if isinstance(m, App):
        wellscoped(delta, m.fn)
        wellscoped(delta, m.arg)
        return
    if isinstance(m, Let):
        wellscoped(delta, m.bound)
        wellscoped(delta, m.body)
        return
    if isinstance(m, LetAnn):
        _check_annotation(delta, m.ann, m.span)
        prefix, _ = split(m.ann, m.bound)
        # Concatenating kind environments requires disjointness: an
        # annotation must not rebind a rigid variable over its bound term,
        # or two distinct variables would be conflated.
        clash = set(prefix) & set(delta.names())
        if clash:
            raise StaticsError(
                f"annotation rebinds type variable(s) {sorted(clash)} "
                "already in scope",
                m.span,
            )
        wellscoped(delta.extend(*prefix), m.bound)
        wellscoped(delta, m.body)
        return
    raise ValueError(f"wellscoped applies to desugared terms only: {m!r}")


def _check_annotation(delta: KindEnv, ann: Type, span: Span | None) -> None:
    try:
        kind_of(delta, ann)
    except UnboundTyVar as err:
        raise UnboundTyVar(err.name, span) from None
    except StaticsError as err:
        raise StaticsError(err.message, span) from None
