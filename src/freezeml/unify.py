"""Unification over a fixed rigid environment and a refined flexible one.

Flexible variables are solved by removing them from the refined
environment and re-kinding the candidate type in what remains: a
variable occurring in its own solution is then unbound, so the kinding
assertion doubles as the occurs check.  Monomorphic variables force
demotion of any polymorphic flexibles in the solution, so that later
unifications cannot smuggle polymorphism back in.  Quantifiers unify by
skolemisation: bodies are opened with one fresh rigid variable which
must not leak into the resulting substitution.

The recursion works on sparse substitutions that hold only the
variables it solved.  The public :func:`unify` pads the result once, so
that its domain is exactly the input environment; inference calls
:func:`unify_sparse` and never pays for the padding.
"""

from __future__ import annotations

from typing import Optional

from .statics import StaticsError, kind_of
from .subst import Subst, demote
from .syntax import (
    Con,
    Forall,
    Kind,
    KindEnv,
    LookupEnv,
    NameSupply,
    RefinedKindEnv,
    TVar,
    Type,
    all_type_names,
    ftv_ordered,
    ftv_set,
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
        super().__init__(f"quantified variable {skolem!r} escapes its scope", left, right)
        self.skolem = skolem


class StructureMismatch(UnifyError):
    """A quantified type against an unquantified one, with no flexible
    variable to absorb the difference."""


def unify(
    delta: KindEnv,
    theta: RefinedKindEnv,
    a: Type,
    b: Type,
    supply: Optional[NameSupply] = None,
) -> tuple[RefinedKindEnv, Subst]:
    """Most general unifier of `a` and `b`.

    Returns the updated refined environment and a substitution theta'
    with domain exactly the input environment's variables.
    """
    theta1, subst = unify_sparse(delta, theta, a, b, supply)
    return theta1, subst.restrict(theta.names())


def unify_sparse(
    delta: KindEnv,
    theta: RefinedKindEnv,
    a: Type,
    b: Type,
    supply: Optional[NameSupply] = None,
) -> tuple[RefinedKindEnv, Subst]:
    """As :func:`unify`, but the substitution holds only solved variables."""
    if supply is None:
        avoid = set(delta.names()) | set(theta.names())
        avoid |= all_type_names(a) | all_type_names(b)
        supply = NameSupply(avoid)

    if isinstance(a, TVar) and isinstance(b, TVar) and a.name == b.name:
        return theta, _EMPTY

    if isinstance(a, TVar) and a.name in theta:
        return _solve(delta, theta, a.name, b)
    if isinstance(b, TVar) and b.name in theta:
        return _solve(delta, theta, b.name, a)

    if isinstance(a, Con) and isinstance(b, Con):
        if a.con != b.con:
            raise ConMismatch(
                f"cannot unify {a.con.name} with {b.con.name}", a, b
            )
        theta_i = theta
        subst_i = _EMPTY
        for arg_a, arg_b in zip(a.args, b.args):
            theta_i, step = unify_sparse(
                delta, theta_i, subst_i.apply(arg_a), subst_i.apply(arg_b), supply
            )
            subst_i = subst_i.then(step)
        return theta_i, subst_i

    if isinstance(a, Forall) and isinstance(b, Forall):
        skolem = supply.fresh()
        open_a = Subst({a.var: TVar(skolem)}).apply(a.body)
        open_b = Subst({b.var: TVar(skolem)}).apply(b.body)
        theta1, subst = unify_sparse(delta.extend(skolem), theta, open_a, open_b, supply)
        # Every solved variable belongs to theta, so the sparse images
        # are the images of theta's names that can mention the skolem.
        if any(skolem in ftv_set(image) for _, image in subst.items()):
            raise SkolemEscape(skolem, a, b)
        return theta1, subst

    if isinstance(a, Forall) or isinstance(b, Forall):
        raise StructureMismatch(
            "cannot unify a quantified type with an unquantified one", a, b
        )
    raise RigidMismatch("cannot unify distinct rigid variables", a, b)


def _solve(
    delta: KindEnv, theta: RefinedKindEnv, var: str, solution: Type
) -> tuple[RefinedKindEnv, Subst]:
    kind = theta.lookup(var)
    assert kind is not None
    rest = theta.without(var)
    flexible_in_solution = [
        v for v in ftv_ordered(solution) if v not in delta
    ]
    theta1 = demote(kind, rest, flexible_in_solution)
    try:
        solution_kind = kind_of(LookupEnv(delta, theta1), solution)
    except StaticsError as err:
        raise OccursOrKind(
            f"solution for {var!r} is ill-kinded: {err.message}",
            TVar(var),
            solution,
        ) from None
    if not solution_kind.le(kind):
        raise OccursOrKind(
            f"solution for {var!r} has kind {solution_kind}, needs {kind}",
            TVar(var),
            solution,
        )
    return theta1, Subst({var: solution})


_EMPTY = Subst()
