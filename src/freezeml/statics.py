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
    Kind,
    KindEnv,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Span,
    TERM_LEAVES,
    Term,
    TVar,
    Type,
    TypeEnv,
    Walk,
    decompose,
    ftv_ordered,
    is_gval,
    trampoline,
)


class KindingEnv(Protocol):
    """Anything that maps a type-variable name to its kind, or to None:
    Δ as a :class:`freezeml.syntax.KindEnv`, or a ``dict[str, Kind]``
    such as a refined kind environment Θ."""

    def get(self, name: str) -> Kind | None: ...


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


def kind_of(env: KindingEnv, a: Type) -> Kind:
    """Minimal kind of `a`; raises on unbound variables or bad arities.

    The minimal kind is the join of the kinds of the parts of `a`, so
    one loop visits them in pre-order on a stack of its own, each paired
    with the quantifier binders in scope over it.  A binder is
    monomorphic and shadows `env`.
    """
    kind = Kind.MONO
    parts: list[tuple[Type, frozenset[str]]] = []
    t, bound = a, frozenset()
    while True:
        if isinstance(t, TVar):
            var_kind = Kind.MONO if t.name in bound else env.get(t.name)
            if var_kind is None:
                raise UnboundTyVar(t.name)
            kind = kind.join(var_kind)
        elif isinstance(t, Con):
            if len(t.args) != t.con.arity:
                raise KindArityError(
                    f"{t.con.name} expects {t.con.arity} arguments, got {len(t.args)}"
                )
            parts += [(arg, bound) for arg in reversed(t.args)]
        elif isinstance(t, Forall):
            kind = Kind.POLY  # any kind of the body upcasts to poly
            parts.append((t.body, bound | {t.var}))
        else:
            raise TypeError(f"not a type: {t!r}")
        if not parts:
            return kind
        t, bound = parts.pop()


def env_wf(theta: KindingEnv, gamma: TypeEnv) -> None:
    """Every binding must be well-kinded with monomorphic free variables.

    Rigid variables count as monomorphic; a free variable of poly kind
    in the environment would let inference guess polymorphism.
    """
    for var, ty in gamma:
        kind_of(theta, ty)  # raises unless well-formed
        for tv in ftv_ordered(ty):
            if theta.get(tv) is not Kind.MONO:
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
    trampoline(_wellscoped(delta, m))


def _wellscoped(delta: KindEnv, m: Term) -> Walk:
    """The walk of :func:`wellscoped`: it goes on down the last subterm
    itself and yields the walk of any other."""
    while not isinstance(m, TERM_LEAVES):
        if isinstance(m, (LamAnn, LetAnn)):
            _check_annotation(delta, m.ann, m.span)
        if isinstance(m, (Lam, LamAnn)):
            m = m.body
            continue
        if isinstance(m, App):
            first, first_delta, m = m.fn, delta, m.arg
        elif isinstance(m, Let):
            first, first_delta, m = m.bound, delta, m.body
        elif isinstance(m, LetAnn):
            prefix, _ = split(m.ann, m.bound)
            # Concatenating kind environments requires disjointness: an
            # annotation must not rebind a rigid variable over its bound
            # term, or two distinct variables would be conflated.
            clash = {name for name in prefix if name in delta}
            if clash:
                raise StaticsError(
                    f"annotation rebinds type variable(s) {sorted(clash)} "
                    "already in scope",
                    m.span,
                )
            first, first_delta, m = m.bound, delta.extend(*prefix), m.body
        else:
            raise ValueError(f"wellscoped applies to desugared terms only: {m!r}")
        if not isinstance(first, TERM_LEAVES):
            yield _wellscoped(first_delta, first)


def _check_annotation(delta: KindEnv, ann: Type, span: Span | None) -> None:
    try:
        kind_of(delta, ann)
    except UnboundTyVar as err:
        raise UnboundTyVar(err.name, span) from None
    except StaticsError as err:
        raise StaticsError(err.message, span) from None
