"""Abstract syntax for types and terms.

Types are shared between the surface language and the System F core:
type variables, saturated constructor applications, and universal
quantification.  Two syntactic subclasses matter throughout:

* monotypes (S): no quantifier anywhere,
* guarded types (H): no quantifier at the root (polymorphism may sit
  under a constructor).

Terms distinguish plain variable occurrences ``x`` (implicitly
instantiated) from frozen ones ``~x`` (type returned verbatim), and
carry optional annotations on lambda and let binders.  The surface
operators ``$M`` (generalise) and ``M@`` (instantiate) are sugar nodes,
removed by :func:`desugar` before any checking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

# Internal (machine-generated) names start with this prefix; the parser
# rejects user identifiers that carry it.
INTERNAL_PREFIX = "%"


def is_internal_name(name: str) -> bool:
    return name.startswith(INTERNAL_PREFIX)


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

class Kind(enum.Enum):
    """Monomorphic (no quantifiers reachable) vs possibly polymorphic."""

    MONO = "mono"
    POLY = "poly"

    def join(self, other: "Kind") -> "Kind":
        if self is Kind.MONO and other is Kind.MONO:
            return Kind.MONO
        return Kind.POLY

    def le(self, other: "Kind") -> bool:
        return self is other or (self is Kind.MONO and other is Kind.POLY)

    def __str__(self) -> str:
        return "*" if self is Kind.POLY else "."


# ---------------------------------------------------------------------------
# Source spans (diagnostics only; never part of equality)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    start: int
    end: int
    line: int
    col: int

    def __post_init__(self) -> None:
        assert self.start <= self.end


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeCon:
    name: str
    arity: int


INT = TypeCon("Int", 0)
BOOL = TypeCon("Bool", 0)
LIST = TypeCon("List", 1)
ARROW = TypeCon("->", 2)
PAIR = TypeCon("Pair", 2)
ST = TypeCon("ST", 2)

BUILTIN_CONS = {c.name: c for c in (INT, BOOL, LIST, ARROW, PAIR, ST)}


class Type:
    __slots__ = ()


@dataclass(frozen=True)
class TVar(Type):
    name: str


@dataclass(frozen=True)
class Con(Type):
    con: TypeCon
    args: tuple = ()

    def __post_init__(self) -> None:
        assert len(self.args) == self.con.arity, (self.con, self.args)


@dataclass(frozen=True)
class Forall(Type):
    var: str
    body: Type


t_int = Con(INT)
t_bool = Con(BOOL)


def arrow(dom: Type, cod: Type) -> Type:
    return Con(ARROW, (dom, cod))


def list_of(elem: Type) -> Type:
    return Con(LIST, (elem,))


def pair_of(fst: Type, snd: Type) -> Type:
    return Con(PAIR, (fst, snd))


def foralls(names: Iterable[str], body: Type) -> Type:
    result = body
    for name in reversed(tuple(names)):
        result = Forall(name, result)
    return result


def decompose(a: Type) -> tuple[tuple[str, ...], Type]:
    """Peel the top-level quantifier prefix, yielding (prefix, guarded body)."""
    prefix: list[str] = []
    while isinstance(a, Forall):
        prefix.append(a.var)
        a = a.body
    return tuple(prefix), a


def is_monotype(a: Type) -> bool:
    if isinstance(a, TVar):
        return True
    if isinstance(a, Con):
        return all(is_monotype(arg) for arg in a.args)
    return False


def is_guarded(a: Type) -> bool:
    return not isinstance(a, Forall)


def ftv_ordered(a: Type) -> list[str]:
    """Distinct free type variables in first-occurrence order."""
    seen: list[str] = []

    def walk(t: Type, bound: tuple[str, ...]) -> None:
        if isinstance(t, TVar):
            if t.name not in bound and t.name not in seen:
                seen.append(t.name)
        elif isinstance(t, Con):
            for arg in t.args:
                walk(arg, bound)
        elif isinstance(t, Forall):
            walk(t.body, bound + (t.var,))
        else:
            raise TypeError(f"not a type: {t!r}")

    walk(a, ())
    return seen


_NO_VARS: frozenset[str] = frozenset()


def ftv_set(a: Type) -> frozenset[str]:
    """Free type variables of `a` as a set, cached on each node.

    Type nodes are frozen, so a node's free variables never change and
    the cache needs no invalidation.
    """
    try:
        return a.__dict__["_ftv"]
    except (AttributeError, KeyError):
        pass
    if isinstance(a, TVar):
        fv = frozenset((a.name,))
    elif isinstance(a, Con):
        fv = _NO_VARS.union(*[ftv_set(arg) for arg in a.args])
    elif isinstance(a, Forall):
        fv = ftv_set(a.body) - {a.var}
    else:
        raise TypeError(f"not a type: {a!r}")
    a.__dict__["_ftv"] = fv
    return fv


def all_type_names(a: Type) -> set[str]:
    """Every variable name occurring in `a`, free or bound."""
    names: set[str] = set()

    def walk(t: Type) -> None:
        if isinstance(t, TVar):
            names.add(t.name)
        elif isinstance(t, Con):
            for arg in t.args:
                walk(arg)
        elif isinstance(t, Forall):
            names.add(t.var)
            walk(t.body)

    walk(a)
    return names


def alpha_eq(a: Type, b: Type) -> bool:
    """Equality up to consistent renaming of quantifier-bound variables.

    Free variables are rigid: they must agree by name.  The order of
    quantifiers matters, so ``forall a b. a -> b`` differs from
    ``forall b a. a -> b``.
    """

    def walk(x: Type, y: Type, bx: tuple[str, ...], by: tuple[str, ...]) -> bool:
        if x is y and bx == by:
            # One node under the same binders; shared subtrees are common.
            return True
        if isinstance(x, TVar) and isinstance(y, TVar):
            # Innermost binder position must coincide, or both free.
            for i, (na, nb) in enumerate(zip(reversed(bx), reversed(by))):
                hit_a = na == x.name
                hit_b = nb == y.name
                if hit_a or hit_b:
                    return hit_a and hit_b
            return x.name == y.name
        if isinstance(x, Con) and isinstance(y, Con):
            if x.con != y.con:
                return False
            return all(walk(p, q, bx, by) for p, q in zip(x.args, y.args))
        if isinstance(x, Forall) and isinstance(y, Forall):
            return walk(x.body, y.body, bx + (x.var,), by + (y.var,))
        return False

    return walk(a, b, (), ())


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Freeze(Term):
    name: str
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Lit(Term):
    """Integer and boolean constants, typed at Int resp. Bool."""

    value: Union[int, bool]
    span: Optional[Span] = field(default=None, compare=False)

    @property
    def type(self) -> Type:
        return t_bool if isinstance(self.value, bool) else t_int


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class LamAnn(Term):
    var: str
    ann: Type
    body: Term
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Let(Term):
    var: str
    bound: Term
    body: Term
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class LetAnn(Term):
    var: str
    ann: Type
    bound: Term
    body: Term
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Gen(Term):
    """Surface sugar: ``$M``."""

    body: Term
    span: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class Inst(Term):
    """Surface sugar: ``M@``."""

    body: Term
    span: Optional[Span] = field(default=None, compare=False)


def term_names(m: Term) -> set[str]:
    """All term-variable names occurring in `m` (free or bound)."""
    names: set[str] = set()

    def walk(t: Term) -> None:
        if isinstance(t, (Var, Freeze)):
            names.add(t.name)
        elif isinstance(t, Lit):
            pass
        elif isinstance(t, Lam):
            names.add(t.var)
            walk(t.body)
        elif isinstance(t, LamAnn):
            names.add(t.var)
            walk(t.body)
        elif isinstance(t, App):
            walk(t.fn)
            walk(t.arg)
        elif isinstance(t, (Let, LetAnn)):
            names.add(t.var)
            walk(t.bound)
            walk(t.body)
        elif isinstance(t, (Gen, Inst)):
            walk(t.body)
        else:
            raise TypeError(f"not a term: {t!r}")

    walk(m)
    return names


def annotation_type_names(m: Term) -> set[str]:
    """All type-variable names in annotations of `m` (free or bound)."""
    names: set[str] = set()

    def walk(t: Term) -> None:
        if isinstance(t, (Var, Freeze, Lit)):
            pass
        elif isinstance(t, Lam):
            walk(t.body)
        elif isinstance(t, LamAnn):
            names.update(all_type_names(t.ann))
            walk(t.body)
        elif isinstance(t, App):
            walk(t.fn)
            walk(t.arg)
        elif isinstance(t, Let):
            walk(t.bound)
            walk(t.body)
        elif isinstance(t, LetAnn):
            names.update(all_type_names(t.ann))
            walk(t.bound)
            walk(t.body)
        elif isinstance(t, (Gen, Inst)):
            walk(t.body)

    walk(m)
    return names


# ---------------------------------------------------------------------------
# Value classification
# ---------------------------------------------------------------------------

class TermClass(enum.IntEnum):
    NONVAL = 0
    VAL = 1
    GVAL = 2


def classify(m: Term) -> TermClass:
    """Classify a (desugared) term as non-value, value, or guarded value.

    Guarded values are the values with no frozen variable in tail
    position; they are the only terms let-bindings generalise.
    """
    if isinstance(m, (Var, Lam, LamAnn, Lit)):
        return TermClass.GVAL
    if isinstance(m, Freeze):
        return TermClass.VAL
    if isinstance(m, (Let, LetAnn)):
        if classify(m.bound) >= TermClass.VAL:
            return classify(m.body)
        return TermClass.NONVAL
    if isinstance(m, App):
        return TermClass.NONVAL
    if isinstance(m, (Gen, Inst)):
        raise ValueError("classify applies to desugared terms only")
    raise TypeError(f"not a term: {m!r}")


def is_value(m: Term) -> bool:
    return classify(m) >= TermClass.VAL


def is_gval(m: Term) -> bool:
    return classify(m) is TermClass.GVAL


# ---------------------------------------------------------------------------
# Name supplies
# ---------------------------------------------------------------------------

def internal_index(name: str) -> Optional[int]:
    if name.startswith(INTERNAL_PREFIX):
        rest = name[len(INTERNAL_PREFIX):].lstrip("vg")
        if rest.isdigit():
            return int(rest)
    return None


class NameSupply:
    """Emits internal names %0, %1, ...; never collides with `avoid`.

    Explicit state: callers thread a supply through inference so that
    independent runs stay deterministic and reentrant.
    """

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        self._avoid = set(avoid)
        start = 0
        for name in self._avoid:
            idx = internal_index(name)
            if idx is not None:
                start = max(start, idx + 1)
        self._next = start

    def fresh(self, tag: str = "") -> str:
        while True:
            name = f"{INTERNAL_PREFIX}{tag}{self._next}"
            self._next += 1
            if name not in self._avoid:
                self._avoid.add(name)
                return name

    def fresh_many(self, n: int, tag: str = "") -> tuple[str, ...]:
        return tuple(self.fresh(tag) for _ in range(n))


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

def desugar(m: Term) -> Term:
    """Expand ``$M`` to ``let x = M in ~x`` and ``M@`` to ``let x = M in x``.

    The let-bound variables are fresh internal names, so no capture can
    occur.  ``$`` is expanded for arbitrary bodies; whether the binding
    generalises is decided later by the let rule.
    """
    supply = NameSupply(term_names(m))

    def walk(t: Term) -> Term:
        if isinstance(t, (Var, Freeze, Lit)):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, walk(t.body), t.span)
        if isinstance(t, LamAnn):
            return LamAnn(t.var, t.ann, walk(t.body), t.span)
        if isinstance(t, App):
            return App(walk(t.fn), walk(t.arg), t.span)
        if isinstance(t, Let):
            return Let(t.var, walk(t.bound), walk(t.body), t.span)
        if isinstance(t, LetAnn):
            return LetAnn(t.var, t.ann, walk(t.bound), walk(t.body), t.span)
        if isinstance(t, Gen):
            x = supply.fresh("g")
            return Let(x, walk(t.body), Freeze(x, t.span), t.span)
        if isinstance(t, Inst):
            x = supply.fresh("g")
            return Let(x, walk(t.body), Var(x, t.span), t.span)
        raise TypeError(f"not a term: {t!r}")

    return walk(m)


def has_sugar(m: Term) -> bool:
    if isinstance(m, (Gen, Inst)):
        return True
    if isinstance(m, (Lam, LamAnn)):
        return has_sugar(m.body)
    if isinstance(m, App):
        return has_sugar(m.fn) or has_sugar(m.arg)
    if isinstance(m, (Let, LetAnn)):
        return has_sugar(m.bound) or has_sugar(m.body)
    return False


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

class KindEnv:
    """Ordered rigid type variables, implicitly all monomorphic."""

    __slots__ = ("_names",)

    def __init__(self, names: Iterable[str] = ()) -> None:
        ordered: list[str] = []
        for name in names:
            if name not in ordered:
                ordered.append(name)
        self._names = tuple(ordered)

    def names(self) -> tuple[str, ...]:
        return self._names

    def extend(self, *names: str) -> "KindEnv":
        return KindEnv(self._names + names)

    def lookup(self, name: str) -> Optional[Kind]:
        return Kind.MONO if name in self._names else None

    def minus(self, names: Iterable[str]) -> "KindEnv":
        drop = set(names)
        return KindEnv(n for n in self._names if n not in drop)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KindEnv) and self._names == other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"KindEnv({list(self._names)!r})"


class RefinedKindEnv:
    """Ordered flexible type variables, each at kind mono or poly."""

    __slots__ = ("_kinds",)

    def __init__(self, entries: Iterable[tuple[str, Kind]] = ()) -> None:
        kinds: dict[str, Kind] = {}
        for name, kind in entries:
            assert name not in kinds, f"duplicate flexible variable {name}"
            kinds[name] = kind
        self._kinds = kinds

    @classmethod
    def _of(cls, kinds: dict[str, Kind]) -> "RefinedKindEnv":
        """Wrap a fresh dict, already free of duplicates, without copying."""
        env = object.__new__(cls)
        env._kinds = kinds
        return env

    @staticmethod
    def of_kind_env(delta: KindEnv) -> "RefinedKindEnv":
        return RefinedKindEnv((name, Kind.MONO) for name in delta)

    def entries(self) -> tuple[tuple[str, Kind], ...]:
        return tuple(self._kinds.items())

    def names(self) -> tuple[str, ...]:
        return tuple(self._kinds)

    def lookup(self, name: str) -> Optional[Kind]:
        return self._kinds.get(name)

    def extend(self, name: str, kind: Kind) -> "RefinedKindEnv":
        assert name not in self._kinds, f"duplicate flexible variable {name}"
        kinds = dict(self._kinds)
        kinds[name] = kind
        return RefinedKindEnv._of(kinds)

    def remove(self, names: Iterable[str]) -> "RefinedKindEnv":
        drop = set(names)
        return RefinedKindEnv._of(
            {n: k for n, k in self._kinds.items() if n not in drop}
        )

    def without(self, name: str) -> "RefinedKindEnv":
        return self.remove((name,))

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def __iter__(self) -> Iterator[tuple[str, Kind]]:
        return iter(self._kinds.items())

    def __len__(self) -> int:
        return len(self._kinds)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RefinedKindEnv) and self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        pretty = ", ".join(f"{n}:{k}" for n, k in self._kinds.items())
        return f"RefinedKindEnv({pretty})"


class LookupEnv:
    """Combined rigid + flexible view, used by the kinding judgement."""

    __slots__ = ("delta", "theta")

    def __init__(self, delta: KindEnv, theta: RefinedKindEnv) -> None:
        self.delta = delta
        self.theta = theta

    def lookup(self, name: str) -> Optional[Kind]:
        kind = self.theta.lookup(name)
        if kind is not None:
            return kind
        return self.delta.lookup(name)


class TypeEnv:
    """Ordered term-variable bindings; lookup returns the rightmost."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Iterable[tuple[str, Type]] = ()) -> None:
        self._bindings = tuple(bindings)

    def bindings(self) -> tuple[tuple[str, Type], ...]:
        return self._bindings

    def extend(self, name: str, ty: Type) -> "TypeEnv":
        return TypeEnv(self._bindings + ((name, ty),))

    def lookup(self, name: str) -> Optional[Type]:
        for bound_name, ty in reversed(self._bindings):
            if bound_name == name:
                return ty
        return None

    def map_types(self, fn) -> "TypeEnv":
        return TypeEnv((name, fn(ty)) for name, ty in self._bindings)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._bindings)

    def type_names(self) -> set[str]:
        names: set[str] = set()
        for _, ty in self._bindings:
            names.update(all_type_names(ty))
        return names

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def __iter__(self) -> Iterator[tuple[str, Type]]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        return f"TypeEnv({list(self._bindings)!r})"
