"""Unification, and the store that inference and unification share.

One :class:`Store` lives for exactly one :func:`unify` or
:func:`freezeml.infer.infer` call.  It holds every type variable in
scope: the rigid ones, and the flexible ones with their kind and their
let level.  It records the image of each solved flexible variable, in
the order solved, and holds the term environment as a scoped map.

Solving a flexible variable removes it from the flexible ones and kinds
the candidate type against what remains: a variable occurring in its own
solution is then unbound, so the kinding assertion doubles as the occurs
check.  Solving a monomorphic variable demotes the polymorphic flexibles
of its solution, so that later unifications cannot smuggle polymorphism
back in.  Every solve lowers the levels of its solution's variables to
the solved variable's level, so a variable's level says how far out the
environment reaches it.  Quantifiers unify by skolemisation: both bodies
are opened with one fresh rigid variable, which must not appear in any
image solved since.

An image may mention variables solved after it; application and lookup
resolve images on demand and write the resolved image back.  The public
:func:`unify` returns the paper's form, an idempotent substitution with
domain exactly the input environment.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from .statics import StaticsError, kind_of
from .subst import Subst, _apply
from .syntax import (
    Con,
    Forall,
    Kind,
    KindEnv,
    NameSupply,
    RefinedKindEnv,
    TVar,
    Type,
    TypeEnv,
    ftv_ordered,
    names,
)


class UnifyError(Exception):
    def __init__(self, message: str, left: Type | None = None, right: Type | None = None):
        super().__init__(message)
        self.message = message
        self.left = left
        self.right = right


class ConMismatch(UnifyError):
    pass


class RigidMismatch(UnifyError):
    pass


class OccursOrKind(UnifyError):
    """The flexible-variable kinding assertion failed: either the variable
    occurs in its own solution or the solution's kind is too polymorphic."""


class SkolemEscape(UnifyError):
    def __init__(self, skolem: str, left: Type, right: Type):
        super().__init__("a quantified variable escapes its scope", left, right)
        self.skolem = skolem


class StructureMismatch(UnifyError):
    """A quantified type against an unquantified one, with no flexible
    variable to absorb the difference."""


def unify(
    delta: KindEnv,
    theta: RefinedKindEnv,
    a: Type,
    b: Type,
) -> tuple[RefinedKindEnv, Subst]:
    """Most general unifier of `a` and `b`.

    Returns the updated refined environment and a substitution theta'
    with domain exactly the input environment's variables.
    """
    supply = NameSupply((*delta.names(), *theta.names(), *names(a, b)[1]))
    store = Store(delta, theta, supply)
    store.unify(a, b)
    return store.theta(), store.solution(theta.names())


class Store:
    """The type variables, solutions and term environment of one call.

    `rigid` holds the rigid variables in scope, `kinds` the unsolved
    flexible ones in order of creation, and `levels` the let level of
    each flexible variable and of each annotation prefix variable in
    scope.  `images` maps each solved variable to its solution, in the
    order solved; an image is resolved once no variable free in it is
    solved.  `gamma` maps each term variable to its bindings, innermost
    last.
    """

    __slots__ = (
        "supply", "rigid", "kinds", "levels", "level", "images", "gamma", "_memo",
    )

    def __init__(
        self,
        delta: KindEnv,
        theta: RefinedKindEnv,
        supply: NameSupply,
        gamma: TypeEnv = TypeEnv(),
    ) -> None:
        self.supply = supply
        self.rigid = set(delta.names())
        self.kinds = dict(theta)
        self.levels = dict.fromkeys(self.kinds, 0)
        self.level = 0
        self.images: dict[str, Type] = {}
        self.gamma: dict[str, list[Type]] = {}
        for name, ty in gamma:
            self.bind(name, ty)
        self._memo: dict = {}

    # -- variables ------------------------------------------------------------

    def lookup(self, name: str) -> Optional[Kind]:
        """The kind of a variable in scope, for the kinding judgement."""
        kind = self.kinds.get(name)
        if kind is None and name in self.rigid:
            return Kind.MONO
        return kind

    def fresh(self, kind: Kind) -> str:
        """A new flexible variable at the current level."""
        name = self.supply.fresh()
        self.kinds[name] = kind
        self.levels[name] = self.level
        return name

    def theta(self) -> RefinedKindEnv:
        return RefinedKindEnv(self.kinds.items())

    # -- the term environment -------------------------------------------------

    def bind(self, name: str, ty: Type) -> None:
        self.gamma.setdefault(name, []).append(ty)

    def unbind(self, name: str) -> None:
        self.gamma[name].pop()

    def scheme(self, name: str) -> Optional[Type]:
        """The innermost binding of `name`, read through the solution."""
        bindings = self.gamma.get(name)
        return self.apply(bindings[-1]) if bindings else None

    # -- solutions ------------------------------------------------------------

    def _current(self, name: str) -> bool:
        return self.images.keys().isdisjoint(ftv_ordered(self.images[name]).keys())

    def _resolve(self, names) -> dict[str, Type]:
        """The images, resolved for every solved one of `names`.

        An image is resolved after the solved variables it mentions, on
        an explicit stack so that long chains do not recurse.
        """
        images = self.images
        stack = [n for n in names if n in images and not self._current(n)]
        while stack:
            name = stack[-1]
            if self._current(name):
                stack.pop()
                continue
            image = images[name]
            pending = [
                v for v in ftv_ordered(image) if v in images and not self._current(v)
            ]
            if pending:
                stack.extend(pending)
            else:
                stack.pop()
                images[name] = _apply(images, image, self._memo)
        return images

    def apply(self, a: Type) -> Type:
        if not self.images:
            return a
        fv = ftv_ordered(a)
        if self.images.keys().isdisjoint(fv.keys()):
            return a
        return _apply(self._resolve(fv), a, self._memo)

    def resolved(self, name: str) -> Type:
        """The resolved image of a variable; unsolved ones are unchanged."""
        if name not in self.images:
            return TVar(name)
        return self._resolve((name,))[name]

    def solution(self, names) -> Subst:
        return Subst((n, self.resolved(n)) for n in names)

    # -- unification ----------------------------------------------------------

    def unify(self, a: Type, b: Type) -> None:
        """Solve flexible variables so that `a` and `b` become equal.

        Both types must already be read through the solution.
        """
        if isinstance(a, TVar) and isinstance(b, TVar) and a.name == b.name:
            return
        if isinstance(a, TVar) and a.name in self.kinds:
            return self._solve(a.name, b)
        if isinstance(b, TVar) and b.name in self.kinds:
            return self._solve(b.name, a)

        if isinstance(a, Con) and isinstance(b, Con):
            if a.con != b.con:
                raise ConMismatch(
                    f"cannot unify {a.con.name} with {b.con.name}", a, b
                )
            for arg_a, arg_b in zip(a.args, b.args):
                self.unify(self.apply(arg_a), self.apply(arg_b))
            return

        if isinstance(a, Forall) and isinstance(b, Forall):
            skolem = self.supply.fresh()
            open_a = Subst({a.var: TVar(skolem)}).apply(a.body)
            open_b = Subst({b.var: TVar(skolem)}).apply(b.body)
            mark = len(self.images)
            self.rigid.add(skolem)
            self.unify(open_a, open_b)
            self.rigid.remove(skolem)
            # Only images solved since the mark can mention the skolem,
            # resolved by now or not: resolution never removes the rigid
            # skolem, and brings it in only from another of them.
            since = islice(self.images.values(), mark, None)
            if any(skolem in ftv_ordered(image) for image in since):
                raise SkolemEscape(skolem, a, b)
            return

        if isinstance(a, Forall) or isinstance(b, Forall):
            raise StructureMismatch(
                "cannot unify a quantified type with an unquantified one", a, b
            )
        raise RigidMismatch("cannot unify a rigid variable with another type", a, b)

    def _solve(self, var: str, solution: Type) -> None:
        kind = self.kinds.pop(var)
        fv = ftv_ordered(solution)
        if kind is Kind.MONO:
            for v in fv:
                if v in self.kinds:
                    self.kinds[v] = Kind.MONO
        try:
            solution_kind = kind_of(self, solution)
        except StaticsError:
            reason = "occurs in its own" if var in fv else "has an ill-kinded"
            err = OccursOrKind(f"a variable {reason} solution", TVar(var), solution)
            raise err from None
        if not solution_kind.le(kind):
            message = f"a variable of kind {kind} has a solution of kind {solution_kind}"
            raise OccursOrKind(message, TVar(var), solution)
        level = self.levels[var]
        for v in fv:
            if self.levels.get(v, level) > level:
                self.levels[v] = level
        self.images[var] = solution
        self._memo = {}
