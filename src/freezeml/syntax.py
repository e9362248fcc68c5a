"""Abstract syntax for types and terms.

Types are shared between the surface language and the System F core:
type variables, saturated constructor applications, and universal
quantification.  One cached walk, :func:`ftv_ordered`, gives every
type's free variables; no caller may mutate its shared result.  Two
syntactic subclasses matter throughout:

* monotypes (S): no quantifier anywhere,
* guarded types (H): no quantifier at the root (polymorphism may sit
  under a constructor).

Terms distinguish plain variable occurrences ``x`` (implicitly
instantiated) from frozen ones ``~x`` (type returned verbatim), and
carry optional annotations on lambda and let binders.  The surface
operators ``$M`` (generalise) and ``M@`` (instantiate) are sugar nodes,
removed by :func:`desugar` before any checking.  The walks over nested
types and terms keep their own stacks.
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

    def __str__(self) -> str:
        return self.value


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


_NO_VARS: dict[str, None] = {}


def ftv_ordered(a: Type) -> dict[str, None]:
    """Distinct free type variables of `a`, in order of first free
    occurrence in a pre-order walk, as the keys of a shared dict.

    Each type node caches its dict (nodes are frozen, so it never goes
    stale), and a node that adds no variable to its first child's shares
    that child's dict: callers must never mutate the result.  Uncached
    nodes are filled on an explicit stack, children first.
    """
    fv = a.__dict__.get("_ftv")
    if fv is not None:
        return fv
    stack: list[Type] = [a]
    while stack:
        t = stack[-1]
        if "_ftv" in t.__dict__:  # a shared child, filled on an earlier visit
            stack.pop()
            continue
        if isinstance(t, TVar):
            fv = {t.name: None}
        elif isinstance(t, Con):
            todo = [arg for arg in t.args if "_ftv" not in arg.__dict__]
            if todo:
                stack += todo
                continue
            fv = _NO_VARS
            for arg in t.args:
                arg_fv = arg.__dict__["_ftv"]
                if not fv.keys() >= arg_fv.keys():
                    fv = {**fv, **arg_fv} if fv else arg_fv
        elif isinstance(t, Forall):
            fv = t.body.__dict__.get("_ftv")
            if fv is None:
                stack.append(t.body)
                continue
            if t.var in fv:
                fv = {v: None for v in fv if v != t.var}
        else:
            raise TypeError(f"not a type: {t!r}")
        t.__dict__["_ftv"] = fv
        stack.pop()
    return fv


_LEAVE = object()  # the exit marker of a quantifier pair on alpha_eq's stack


def alpha_eq(a: Type, b: Type) -> bool:
    """Equality up to consistent renaming of quantifier-bound variables.

    Free variables are rigid: they must agree by name.  The order of
    quantifiers matters, so ``forall a b. a -> b`` differs from
    ``forall b a. a -> b``.  The walk keeps the pairs still to compare on
    an explicit stack, so deep types compare without recursion.  Each
    quantifier pair gets a number, and each side maps a bound name to
    the numbers of its binders in scope, innermost last: the pair pushes
    its binders and leaves an exit marker below its bodies, which pops
    them, so the walk is linear in quantifier depth.
    """
    left: dict[str, list[int]] = {}
    right: dict[str, list[int]] = {}
    pairs = renamed = 0  # quantifier pairs entered, and those in scope named apart
    leave = _LEAVE
    stack: list = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is leave:  # leaving a quantifier pair: y holds its binders
            left[y[0]].pop()
            right[y[1]].pop()
            renamed -= y[0] != y[1]
            continue
        if x is y and not renamed:
            # One node under the same binders; shared subtrees are common.
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is TVar:
            # Both innermost binders must be of one pair, or both names free and equal.
            bx, by = left.get(x.name), right.get(y.name)
            if (bx[-1] if bx else x.name) != (by[-1] if by else y.name):
                return False
        elif cls is Con:
            if x.con is not y.con and x.con != y.con:
                return False
            stack += zip(x.args, y.args)
        elif cls is Forall:
            pairs += 1
            left.setdefault(x.var, []).append(pairs)
            right.setdefault(y.var, []).append(pairs)
            renamed += x.var != y.var
            stack += ((leave, (x.var, y.var)), (x.body, y.body))
        else:
            return False
    return True


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


def names(*nodes: Union[Type, Term]) -> tuple[dict[str, None], dict[str, None]]:
    """Term and type variable names of `nodes`, free or bound.

    Each result is a dict whose keys are the names in order of first
    occurrence in a pre-order walk: a binder before its annotation and
    its body, constructor arguments and subterms left to right.  The
    walk keeps its own stack, so nesting depth is not limited by the
    Python recursion limit.
    """
    terms: dict[str, None] = {}
    types: dict[str, None] = {}
    stack: list = list(reversed(nodes))
    while stack:
        x = stack.pop()
        if isinstance(x, TVar):
            types[x.name] = None
        elif isinstance(x, Con):
            stack.extend(reversed(x.args))
        elif isinstance(x, Forall):
            types[x.var] = None
            stack.append(x.body)
        elif isinstance(x, (Var, Freeze)):
            terms[x.name] = None
        elif isinstance(x, Lit):
            pass
        elif isinstance(x, Lam):
            terms[x.var] = None
            stack.append(x.body)
        elif isinstance(x, LamAnn):
            terms[x.var] = None
            stack += (x.body, x.ann)
        elif isinstance(x, App):
            stack += (x.arg, x.fn)
        elif isinstance(x, Let):
            terms[x.var] = None
            stack += (x.body, x.bound)
        elif isinstance(x, LetAnn):
            terms[x.var] = None
            stack += (x.body, x.bound, x.ann)
        elif isinstance(x, (Gen, Inst)):
            stack.append(x.body)
        else:
            raise TypeError(f"not a type or term: {x!r}")
    return terms, types


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


def is_gval(m: Term) -> bool:
    return classify(m) is TermClass.GVAL


# ---------------------------------------------------------------------------
# Name supplies
# ---------------------------------------------------------------------------

def internal_index(name: str) -> Optional[int]:
    if name.startswith(INTERNAL_PREFIX):
        rest = name[len(INTERNAL_PREFIX):].lstrip("g")
        if rest.isdecimal():
            return int(rest)
    return None


class NameSupply:
    """Emits internal names %0, %1, ...; never collides with `avoid`.

    Counting starts one past the largest internal index in `avoid`, so
    every name issued, with or without the ``g`` tag that
    :func:`internal_index` reads through, is new.  Explicit state:
    callers thread a supply through inference so that independent runs
    stay deterministic and reentrant.
    """

    def __init__(self, avoid: Iterable[str] = ()) -> None:
        indices = (internal_index(name) for name in avoid)
        self._next = max((i + 1 for i in indices if i is not None), default=0)

    def fresh(self, tag: str = "") -> str:
        name = f"{INTERNAL_PREFIX}{tag}{self._next}"
        self._next += 1
        return name


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

def desugar(m: Term) -> Term:
    """Expand ``$M`` to ``let x = M in ~x`` and ``M@`` to ``let x = M in x``.

    The let-bound variables are fresh internal names, numbered in
    pre-order, so no capture can occur.  ``$`` is expanded for arbitrary
    bodies; whether the binding generalises is decided later by the let
    rule.  Only nodes with sugar below them are rebuilt, so a term
    without sugar comes back as is.  The walk keeps its own stack, where
    a node waits below its children, paired with the name it binds.
    """
    supply: Optional[NameSupply] = None
    done: list[Term] = []
    stack: list = [m]
    while stack:
        t = stack.pop()
        if type(t) is tuple:
            t, x = t
            if x is not None:
                tail = Freeze(x, t.span) if isinstance(t, Gen) else Var(x, t.span)
                t = Let(x, done.pop(), tail, t.span)
            elif isinstance(t, App):
                arg, fn = done.pop(), done.pop()
                if fn is not t.fn or arg is not t.arg:
                    t = App(fn, arg, t.span)
            elif isinstance(t, Lam):
                body = done.pop()
                if body is not t.body:
                    t = Lam(t.var, body, t.span)
            elif isinstance(t, Let):
                body, bound = done.pop(), done.pop()
                if bound is not t.bound or body is not t.body:
                    t = Let(t.var, bound, body, t.span)
            elif isinstance(t, LamAnn):
                body = done.pop()
                if body is not t.body:
                    t = LamAnn(t.var, t.ann, body, t.span)
            else:
                body, bound = done.pop(), done.pop()
                if bound is not t.bound or body is not t.body:
                    t = LetAnn(t.var, t.ann, bound, body, t.span)
            done.append(t)
        elif isinstance(t, (Var, Freeze, Lit)):
            done.append(t)
        elif isinstance(t, App):
            stack += ((t, None), t.arg, t.fn)
        elif isinstance(t, (Lam, LamAnn)):
            stack += ((t, None), t.body)
        elif isinstance(t, (Let, LetAnn)):
            stack += ((t, None), t.body, t.bound)
        elif isinstance(t, (Gen, Inst)):
            if supply is None:
                supply = NameSupply(names(m)[0])
            stack += ((t, supply.fresh("g")), t.body)
        else:
            raise TypeError(f"not a term: {t!r}")
    return done.pop()


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

class KindEnv:
    """Ordered rigid type variables, implicitly all monomorphic."""

    __slots__ = ("_names",)

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names = tuple(dict.fromkeys(names))

    def names(self) -> tuple[str, ...]:
        return self._names

    def extend(self, *names: str) -> "KindEnv":
        return KindEnv(self._names + names)

    def get(self, name: str) -> Optional[Kind]:
        return Kind.MONO if name in self._names else None

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


class TypeEnv:
    """Ordered term-variable bindings; lookup returns the rightmost."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Iterable[tuple[str, Type]] = ()) -> None:
        self._bindings = tuple(bindings)

    def extend(self, name: str, ty: Type) -> "TypeEnv":
        return TypeEnv(self._bindings + ((name, ty),))

    def lookup(self, name: str) -> Optional[Type]:
        for bound_name, ty in reversed(self._bindings):
            if bound_name == name:
                return ty
        return None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._bindings)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def __iter__(self) -> Iterator[tuple[str, Type]]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        return f"TypeEnv({list(self._bindings)!r})"


class Scope:
    """The term environment of one typing walk, as a scoped map.

    Each name maps to its bindings, innermost last: a binder pushes its
    name on entry and pops it on exit, so entering a scope copies
    nothing and a lookup reads one list.  :meth:`push` returns the
    scope, so a walker can hand it straight to the binder's body.
    Built from the immutable :class:`TypeEnv` a walk is given; it never
    outlives the walk.
    """

    __slots__ = ("_bindings",)

    def __init__(self, gamma: Iterable[tuple[str, Type]] = ()) -> None:
        self._bindings: dict[str, list[Type]] = {}
        for name, ty in gamma:
            self.push(name, ty)

    def push(self, name: str, ty: Type) -> "Scope":
        self._bindings.setdefault(name, []).append(ty)
        return self

    def pop(self, name: str) -> None:
        self._bindings[name].pop()

    def lookup(self, name: str) -> Optional[Type]:
        """The innermost binding of `name`, or None."""
        bindings = self._bindings.get(name)
        return bindings[-1] if bindings else None
