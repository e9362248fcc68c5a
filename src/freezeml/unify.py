"""Unification, and the store that inference and unification share.

One :class:`Store` lives for exactly one :func:`unify` or
:func:`freezeml.infer.infer` call.  It holds every type variable in
scope: the rigid ones, and the flexible ones with their kind and their
let level.  It records the image of each solved flexible variable, in
the order solved, and holds the term environment as a scoped map, a
:class:`freezeml.syntax.Scope` that binders push and pop.

The images are union-find links: an image is stored as written, and a
solved variable met anywhere is read as its image.  Unification follows
the links at the head of each side only, so its inputs need not be read
through the solution first.  Solving a flexible variable walks its
solution once, through every link it reaches: a variable occurring in
its own solution, or one no longer in scope, is an error; solving a
monomorphic variable demotes the polymorphic flexibles reached, so that
later unifications cannot smuggle polymorphism back in, and rejects a
reachable quantifier.  Every solve lowers the levels of the variables
reached to the solved variable's level, so a variable's level says how
far out the environment reaches it.  Quantifiers unify by
skolemisation: both bodies are opened with one fresh rigid variable,
which must not appear in any image solved since.

Reading a type through the solution (:meth:`Store.apply`) resolves the
images it reaches and writes each resolved image back.  The public
:func:`unify` returns the paper's Θ' and θ' as plain dicts: the refined
kind environment in order of creation, and an idempotent substitution
with keys exactly the input environment's, in its order.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Optional

from .subst import _apply, substitute
from .syntax import (
    Con,
    Forall,
    Kind,
    KindEnv,
    NameSupply,
    Scope,
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
    theta: dict[str, Kind],
    a: Type,
    b: Type,
) -> tuple[dict[str, Kind], dict[str, Type]]:
    """Most general unifier of `a` and `b`.

    Returns the updated refined environment and a substitution theta'
    with keys exactly the input environment's variables.
    """
    supply = NameSupply((*delta.names(), *theta, *names(a, b)[1]))
    store = Store(delta, theta, supply)
    store.unify(a, b)
    return store.theta(), store.solution(theta)


class Store:
    """The type variables, solutions and term environment of one call.

    `rigid` holds the rigid variables in scope, `kinds` the unsolved
    flexible ones in order of creation, and `levels` the let level of
    each flexible variable and of each annotation prefix variable in
    scope.  `images` maps each solved variable to its solution, in the
    order solved, as written: it may mention variables solved later.
    `gamma` is the term environment, a :class:`freezeml.syntax.Scope`
    that binders push and pop.
    """

    __slots__ = ("supply", "rigid", "kinds", "levels", "level", "images", "gamma")

    def __init__(
        self,
        delta: KindEnv,
        theta: dict[str, Kind],
        supply: NameSupply,
        gamma: TypeEnv = TypeEnv(),
    ) -> None:
        self.supply = supply
        self.rigid = set(delta.names())
        self.kinds = dict(theta)
        self.levels = dict.fromkeys(self.kinds, 0)
        self.level = 0
        self.images: dict[str, Type] = {}
        self.gamma = Scope(gamma)

    # -- variables ------------------------------------------------------------

    def fresh(self, kind: Kind) -> str:
        """A new flexible variable at the current level."""
        name = self.supply.fresh()
        self.kinds[name] = kind
        self.levels[name] = self.level
        return name

    def theta(self) -> dict[str, Kind]:
        """The unsolved flexible variables and their kinds, as a new dict."""
        return dict(self.kinds)

    # -- the term environment -------------------------------------------------

    def scheme(self, name: str) -> Optional[Type]:
        """The innermost binding of `name`, read through the solution."""
        ty = self.gamma.lookup(name)
        return None if ty is None else self.apply(ty)

    # -- solutions ------------------------------------------------------------

    def apply(self, a: Type) -> Type:
        """`a` read through the solution."""
        if not self.images:
            return a
        memo: dict = {}
        _resolve(self.images, ftv_ordered(a), memo)
        return _apply(self.images, a, memo)

    def solution(self, names: Iterable[str]) -> dict[str, Type]:
        """Each of `names` read through the solution, as a new dict."""
        return {n: self.apply(TVar(n)) for n in names}

    # -- unification ----------------------------------------------------------

    def unify(self, a: Type, b: Type) -> None:
        """Solve flexible variables so that `a` and `b` become equal.

        Either side may mention solved variables: a solved variable at
        the head of a side is followed to its image, and constructor
        arguments are unified as written.
        """
        images = self.images
        while type(a) is TVar and a.name in images:
            a = images[a.name]
        while type(b) is TVar and b.name in images:
            b = images[b.name]
        if isinstance(a, TVar) and isinstance(b, TVar) and a.name == b.name:
            return
        if isinstance(a, TVar) and a.name in self.kinds:
            return self._solve(a.name, b)
        if isinstance(b, TVar) and b.name in self.kinds:
            return self._solve(b.name, a)

        if isinstance(a, Con) and isinstance(b, Con):
            if a.con is not b.con and a.con != b.con:
                raise ConMismatch(
                    f"cannot unify {a.con.name} with {b.con.name}", a, b
                )
            for arg_a, arg_b in zip(a.args, b.args):
                self.unify(arg_a, arg_b)
            return

        if isinstance(a, Forall) and isinstance(b, Forall):
            skolem = self.supply.fresh()
            open_a = substitute({a.var: TVar(skolem)}, a.body)
            open_b = substitute({b.var: TVar(skolem)}, b.body)
            mark = len(self.images)
            self.rigid.add(skolem)
            self.unify(open_a, open_b)
            self.rigid.remove(skolem)
            # Only images solved since the mark can mention the skolem,
            # as written or resolved: resolution never removes the rigid
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
        """Record `solution`, as written, as the image of flexible `var`.

        One walk on an explicit stack visits the solution as written and
        every image it links to, once per link; a quantified type hands
        over its free variables.  The variables it reaches must be in
        scope, and `var` must not be among them: `var` has left the
        flexible ones, so the scope check doubles as the occurs check.
        A monomorphic `var` demotes the flexible variables reached, and
        rejects a reachable quantifier.  Every variable reached is
        lowered to `var`'s level.
        """
        images, kinds, levels = self.images, self.kinds, self.levels
        mono = kinds.pop(var) is Kind.MONO
        level = levels[var]
        occurs = unbound = quantified = False
        followed: set[str] = set()
        stack = [solution]
        while stack:
            t = stack.pop()
            if isinstance(t, Con):
                stack += t.args
                continue
            if isinstance(t, Forall):
                quantified = True
                reached = ftv_ordered(t)
            else:
                reached = (t.name,)
            for v in reached:
                image = images.get(v)
                if image is not None:
                    if v not in followed:
                        followed.add(v)
                        stack.append(image)
                    continue
                if v in kinds:
                    if mono:
                        kinds[v] = Kind.MONO
                elif v not in self.rigid:
                    occurs = occurs or v == var
                    unbound = True
                if levels.get(v, level) > level:
                    levels[v] = level
        if unbound:
            reason = "occurs in its own" if occurs else "has an ill-kinded"
            raise OccursOrKind(f"a variable {reason} solution", TVar(var), solution)
        if mono and quantified:
            message = "a variable of kind mono has a solution of kind poly"
            raise OccursOrKind(message, TVar(var), solution)
        images[var] = solution


def _resolve(images: dict[str, Type], names: Iterable[str], memo: dict) -> None:
    """Resolve in place the image of every solved one of `names`.

    An image is resolved once no variable free in it is solved; it is
    resolved after the solved variables it mentions, on an explicit
    stack so that long chains do not recurse.
    """
    settled: set[str] = set()  # resolved images, by this call or before it

    def resolved(name: str) -> bool:
        if name in settled:
            return True
        if images.keys().isdisjoint(ftv_ordered(images[name]).keys()):
            settled.add(name)
            return True
        return False

    stack = [n for n in names if n in images and not resolved(n)]
    while stack:
        name = stack[-1]
        if name in settled:
            stack.pop()
            continue
        image = images[name]
        pending = [v for v in ftv_ordered(image) if v in images and not resolved(v)]
        if pending:
            stack += pending
        else:
            stack.pop()
            images[name] = _apply(images, image, memo)
            settled.add(name)


def reader(images: dict[str, Type]) -> Callable[[Type], Type]:
    """Read types through a finished solution.

    Every image is resolved once, in place, and one memo then serves
    every type read, so types sharing subtrees share their reading.
    """
    memo: dict = {}
    _resolve(images, images, memo)
    return lambda a: _apply(images, a, memo)
