"""Finite maps on type variables: application, composition, well-formedness.

The same application algorithm serves rigid instantiations and flexible
substitutions; the two differ only in the judgement that validates them
(:func:`inst_wf` vs :func:`subst_wf`).  Substitutions are immutable maps,
composed explicitly rather than resolved through a mutable store, so the
soundness and completeness properties of unification and inference can
be tested as written.

Inside unification and inference a substitution is sparse: it holds only
the variables actually solved, each image already passed through every
later solution (:meth:`Subst.then`).  The paper's form, whose domain is
exactly the input flexible environment, is built once by the public
entry points (:meth:`Subst.restrict`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .syntax import (
    Con,
    Forall,
    INTERNAL_PREFIX,
    Kind,
    KindEnv,
    LookupEnv,
    RefinedKindEnv,
    TVar,
    Type,
    TypeEnv,
    all_type_names,
    arrow,
    ftv_ordered,
    ftv_set,
    internal_index,
)
from .statics import StaticsError, kind_of


class Subst:
    """Ordered finite map from type-variable names to types.

    Application remembers its results per type node (see :func:`_apply`),
    so applying one substitution to many types that share subtrees, such
    as the types along a derivation, visits each shared subtree once.
    """

    __slots__ = ("_map", "_memo")

    def __init__(self, mapping: Mapping[str, Type] | Iterable[tuple[str, Type]] = ()):
        self._map = dict(mapping)
        self._memo: dict = {}

    @staticmethod
    def identity(names: Iterable[str]) -> "Subst":
        return Subst((n, TVar(n)) for n in names)

    def domain(self) -> tuple[str, ...]:
        return tuple(self._map)

    def items(self) -> Iterator[tuple[str, Type]]:
        return iter(self._map.items())

    def get(self, name: str) -> Optional[Type]:
        return self._map.get(name)

    def lookup(self, name: str) -> Type:
        """Image of a variable; unmapped variables are unchanged."""
        return self._map.get(name, TVar(name))

    def is_identity(self) -> bool:
        return all(isinstance(t, TVar) and t.name == n for n, t in self._map.items())

    def ftv(self) -> list[str]:
        """Ordered free variables of the range, in domain order."""
        if not self._map:
            return []
        chain: Type | None = None
        for ty in reversed(self._map.values()):
            chain = ty if chain is None else arrow(ty, chain)
        return ftv_ordered(chain)

    def apply(self, a: Type) -> Type:
        return _apply(self._map, a, self._memo)

    def apply_env(self, gamma: TypeEnv) -> TypeEnv:
        if not self._map:
            return gamma
        return gamma.map_types(self.apply)

    def compose(self, inner: "Subst") -> "Subst":
        """self after inner: the domain is inner's, images pass through self."""
        mapping, memo = self._map, self._memo
        keys = mapping.keys()
        return Subst({
            n: t if keys.isdisjoint(ftv_set(t)) else _apply(mapping, t, memo)
            for n, t in inner._map.items()
        })

    def then(self, outer: "Subst") -> "Subst":
        """The solution self, then the solution outer, as one solution.

        self's images pass through outer, and outer's own entries are
        added.  outer solves variables that self left unsolved, so the
        two domains are disjoint.
        """
        if not outer._map:
            return self
        if not self._map:
            return outer
        combined = outer.compose(self)._map
        combined.update(outer._map)
        return Subst(combined)

    def restrict(self, names: Iterable[str]) -> "Subst":
        """The substitution on exactly `names`, unmapped ones to themselves."""
        return Subst((n, self.lookup(n)) for n in names)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subst) and self._map == other._map

    def __repr__(self) -> str:
        inner = ", ".join(f"{n} -> {t}" for n, t in self._map.items())
        return f"Subst[{inner}]"


def _apply(mapping: dict[str, Type], a: Type, memo: dict) -> Type:
    """Capture-avoiding application of `mapping` to `a`.

    Subtrees with no free variable in the mapping come back unchanged.
    `memo` maps a node's id to the node and its image under `mapping`;
    holding the node keeps its id from being reused.
    """
    if not mapping:
        return a
    fv = ftv_set(a)
    if mapping.keys().isdisjoint(fv):
        return a
    if isinstance(a, TVar):
        return mapping[a.name]
    done = memo.get(id(a))
    if done is not None:
        return done[1]
    if isinstance(a, Con):
        result: Type = Con(a.con, tuple(_apply(mapping, arg, memo) for arg in a.args))
    elif isinstance(a, Forall):
        # Only images of variables free under the binder matter; the
        # binder itself is not free, so it shadows its own entry.
        inner = {n: mapping[n] for n in fv if n in mapping}
        # Rename the binder when an image could capture it.
        if any(a.var in ftv_set(t) for t in inner.values()):
            fresh = _fresh_name(inner, a)
            renamed = _apply({a.var: TVar(fresh)}, a.body, {})
            result = Forall(fresh, _apply(inner, renamed, {}))
        else:
            result = Forall(a.var, _apply(inner, a.body, {}))
    else:
        raise TypeError(f"not a type: {a!r}")
    memo[id(a)] = (a, result)
    return result


def _fresh_name(mapping: dict[str, Type], a: Type) -> str:
    """Deterministic fresh name: one past the largest internal index in play."""
    taken = set(all_type_names(a))
    taken.update(mapping)
    for ty in mapping.values():
        taken.update(all_type_names(ty))
    index = 0
    for name in taken:
        i = internal_index(name)
        if i is not None:
            index = max(index, i + 1)
    while f"{INTERNAL_PREFIX}{index}" in taken:
        index += 1
    return f"{INTERNAL_PREFIX}{index}"


# ---------------------------------------------------------------------------
# Well-formedness judgements
# ---------------------------------------------------------------------------

def _disjoint(xs: Iterable[str], ys: Iterable[str]) -> bool:
    return not (set(xs) & set(ys))


def subst_wf(
    delta: KindEnv,
    theta: Subst,
    theta_in: RefinedKindEnv,
    theta_out: RefinedKindEnv,
) -> bool:
    """Does theta map each flexible variable of theta_in to a type of its
    kind over delta, theta_out?"""
    if not _disjoint(delta.names(), theta_in.names()):
        return False
    if not _disjoint(delta.names(), theta_out.names()):
        return False
    if set(theta.domain()) != set(theta_in.names()):
        return False
    env = LookupEnv(delta, theta_out)
    for name, kind in theta_in:
        image = theta.lookup(name)
        try:
            if not kind_of(env, image).le(kind):
                return False
        except StaticsError:
            return False
    return True


def inst_wf(
    delta: KindEnv,
    inst: Subst,
    delta_in: KindEnv,
    kind: Kind,
    delta_out: KindEnv,
) -> bool:
    """Does inst map each rigid variable of delta_in to a type of kind at
    most `kind` over delta, delta_out?"""
    if not _disjoint(delta.names(), delta_in.names()):
        return False
    if not _disjoint(delta.names(), delta_out.names()):
        return False
    if set(inst.domain()) != set(delta_in.names()):
        return False
    env = KindEnv(delta.names() + delta_out.names())
    for name in delta_in:
        image = inst.lookup(name)
        try:
            if not kind_of(env, image).le(kind):
                return False
        except StaticsError:
            return False
    return True


def demote(kind: Kind, theta: RefinedKindEnv, names: Iterable[str]) -> RefinedKindEnv:
    """Force the listed flexible variables down to the monomorphic kind.

    Demoting at poly is the identity; demotion never changes which
    variables are present.
    """
    if kind is Kind.POLY:
        return theta
    targets = set(names)
    return RefinedKindEnv(
        (n, Kind.MONO if n in targets else k) for n, k in theta
    )
