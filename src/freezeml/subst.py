"""Finite maps on type variables: application and composition.

The same application algorithm serves rigid instantiations and flexible
substitutions.  A map is a plain ``dict`` from names to types, applied
simultaneously: an image is final as written, so ``{a: b, b: a}`` swaps
and never chases.  :func:`substitute` applies a map once, for the many
callers that open a quantifier or instantiate a prefix and keep only
the result.

Inference and unification do not compose substitutions as they go.
They record solutions in one mutable store per call (see
:class:`freezeml.unify.Store`) and hand back a ``dict`` in the paper's
form, idempotent and with keys exactly the input flexible environment,
once at the end.

No module of the checker uses :class:`Subst`, the wrapper with explicit
composition that the tests take as the reference for the soundness and
completeness properties.  It stays here only because the traced
benchmark (``bench/spans.py``) counts calls of :meth:`Subst.compose` and
:meth:`Subst.apply_env`; both counters read 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .syntax import (
    Con,
    Forall,
    NameSupply,
    TVar,
    Type,
    TypeEnv,
    ftv_ordered,
    names,
)


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

    def domain(self) -> tuple[str, ...]:
        return tuple(self._map)

    def items(self) -> Iterator[tuple[str, Type]]:
        return iter(self._map.items())

    def get(self, name: str) -> Optional[Type]:
        return self._map.get(name)

    def lookup(self, name: str) -> Type:
        """Image of a variable; unmapped variables are unchanged."""
        image = self._map.get(name)
        return TVar(name) if image is None else image

    def ftv(self) -> dict[str, None]:
        """Free variables of the range, in domain order, as dict keys."""
        return {v: None for ty in self._map.values() for v in ftv_ordered(ty)}

    def apply(self, a: Type) -> Type:
        return _apply(self._map, a, self._memo)

    def apply_env(self, gamma: TypeEnv) -> TypeEnv:
        return TypeEnv((name, self.apply(ty)) for name, ty in gamma)

    def compose(self, inner: "Subst") -> "Subst":
        """self after inner: the domain is inner's, images pass through self.

        The simultaneous composition of the paper; the reference that the
        inference store's solutions are tested against.
        """
        return Subst((n, self.apply(inner.lookup(n))) for n in inner._map)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subst) and self._map == other._map

    def __repr__(self) -> str:
        inner = ", ".join(f"{n} -> {t}" for n, t in self._map.items())
        return f"Subst[{inner}]"


def substitute(mapping: dict[str, Type], a: Type) -> Type:
    """`a` with each variable free in it replaced by its image in
    `mapping`, avoiding capture.

    A one-shot application: nothing is remembered once it returns.  It
    is for a map built only to be applied once, such as the renaming
    that opens a quantifier or the instantiation of a scheme's prefix.
    """
    return _apply(mapping, a, {})


def _apply(mapping: dict[str, Type], a: Type, memo: dict) -> Type:
    """Capture-avoiding application of `mapping` to `a`.

    A variable is looked up directly.  Any other node whose cached free
    variables miss the mapping comes back unchanged, so only the spine
    down to a mapped variable is rebuilt.  `memo` maps a rebuilt node's
    id to the node and its image under `mapping`; holding the node keeps
    its id from being reused.  `mapping` may change between calls
    sharing one memo only as :func:`freezeml.unify._resolve` changes it,
    writing resolved images back: it must already hold every mapped
    variable free in `a`, and no image a memo entry used may change.
    """
    if type(a) is TVar:
        return mapping.get(a.name, a)
    fv = a.__dict__.get("_ftv")
    if fv is None:
        fv = ftv_ordered(a)  # fills the cache; raises TypeError on a non-type
    if mapping.keys().isdisjoint(fv):
        return a
    done = memo.get(id(a))
    if done is not None:
        return done[1]
    if isinstance(a, Con):
        result: Type = Con(a.con, tuple([_apply(mapping, arg, memo) for arg in a.args]))
    elif isinstance(a, Forall):
        # Only images of variables free under the binder matter; the
        # binder itself is not free, so it shadows its own entry.
        inner = {n: mapping[n] for n in fv if n in mapping}
        # Rename the binder when an image could capture it.
        if any(a.var in ftv_ordered(t) for t in inner.values()):
            fresh = NameSupply((*inner, *names(a, *inner.values())[1])).fresh()
            renamed = _apply({a.var: TVar(fresh)}, a.body, {})
            result = Forall(fresh, _apply(inner, renamed, {}))
        else:
            result = Forall(a.var, _apply(inner, a.body, {}))
    else:
        raise TypeError(f"not a type: {a!r}")
    memo[id(a)] = (a, result)
    return result
