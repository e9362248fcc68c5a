"""Abstract syntax: one AST for types, surface terms and System F terms.

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
removed by :func:`desugar` before any checking.  System F terms are
built of the same nodes where the two languages agree: a variable is a
frozen one, whose type is its binding's as written, and literals,
annotated lambdas and applications are the surface's.  Only type
abstraction :class:`FTyAbs` and type application :class:`FTyApp` are
System F's own.  Inference derivations (:mod:`freezeml.infer`) are
terms too, each node a subclass of the term it types.

Every walk whose depth follows the input's runs under one driver,
:func:`trampoline`, so nesting is bounded by memory, not by Python's
recursion limit; only flat folds that measured faster keep a loop of
their own, and the printers share the explicit stack of
:func:`freezeml.parser.render`.  A walk is a generator.  Where a
recursive function would call itself on a child, it yields the child's
walk, so ``body = yield walk(m.body)`` reads as
``body = walk(m.body)``, and a ``try`` around the ``yield`` catches
what the child raises; it returns its result with ``return``.  A walk
handles in place the children that take no walk, such as variables,
and may hand over with ``yield from`` to a helper walk that comes back
to it only through a ``yield``.  Each public entry point is a plain
function that runs its walk with :func:`trampoline`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Generator, Iterable, Iterator, Optional, Union

# Internal (machine-generated) names start with this prefix; the parser
# rejects user identifiers that carry it.
INTERNAL_PREFIX = "%"


def is_internal_name(name: str) -> bool:
    return name.startswith(INTERNAL_PREFIX)


Walk = Generator[Any, Any, Any]  # yields the walks of its children


def trampoline(walk: Walk) -> Any:
    """Run `walk` to its result.  Each walk waits on a list while the
    child it yielded runs; the child's result is sent back into it, or
    its exception thrown into it at the ``yield``.  An exception no walk
    catches reaches the caller."""
    waiting: list[Walk] = []
    result = error = None
    while True:
        try:
            child = walk.send(result) if error is None else walk.throw(error)
        except StopIteration as done:
            if not waiting:
                return done.value
            walk, result, error = waiting.pop(), done.value, None
        except Exception as failure:
            if not waiting:
                raise
            walk, result, error = waiting.pop(), None, failure
        else:
            waiting.append(walk)
            walk, result, error = child, None, None


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

    # `True == 1` in Python, so equal literals have equal types as well.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.type is other.type

    def __hash__(self) -> int:
        return hash((self.value, self.type))


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


@dataclass(frozen=True)
class FTyAbs(Term):
    """System F type abstraction ``/\\a. V``."""

    var: str
    body: Term


@dataclass(frozen=True)
class FTyApp(Term):
    """System F type application ``M [A]``."""

    fn: Term
    arg: Type


TERM_LEAVES = (Var, Freeze, Lit)  # the terms without subterms


def names(*nodes: Union[Type, Term]) -> tuple[dict[str, None], dict[str, None]]:
    """Term and type variable names of `nodes`, types and surface or
    System F terms, free or bound.

    Each result is a dict whose keys are the names in order of first
    occurrence in a pre-order walk: a binder before its annotation and
    its body, constructor arguments and subterms left to right, on a
    stack of the walk's own.  It tests each node's exact class, which
    costs no call, so a node of a subclass, such as a derivation node,
    is rejected.
    """
    terms: dict[str, None] = {}
    types: dict[str, None] = {}
    stack: list = list(reversed(nodes))
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is TVar:
            types[x.name] = None
        elif cls is Con:
            stack.extend(reversed(x.args))
        elif cls is Forall or cls is FTyAbs:
            types[x.var] = None
            stack.append(x.body)
        elif cls is App or cls is FTyApp:
            stack += (x.arg, x.fn)
        elif cls is Var or cls is Freeze:
            terms[x.name] = None
        elif cls is Lam:
            terms[x.var] = None
            stack.append(x.body)
        elif cls is LamAnn:
            terms[x.var] = None
            stack += (x.body, x.ann)
        elif cls is Let:
            terms[x.var] = None
            stack += (x.body, x.bound)
        elif cls is LetAnn:
            terms[x.var] = None
            stack += (x.body, x.bound, x.ann)
        elif cls is Gen or cls is Inst:
            stack.append(x.body)
        elif cls is not Lit:
            raise TypeError(f"not a type or term: {x!r}")
    return terms, types


def rename(
    node: Union[Type, Term], types: dict[str, str], terms: dict[str, str]
) -> Union[Type, Term]:
    """`node`, a type or a System F term, with its type variables renamed
    by `types` and its term variables by `terms`, free and bound alike.
    Like :func:`names`, it tests each node's exact class.
    """
    return _renamed_leaf(node, types, terms) or trampoline(_rename(node, types, terms))


def _renamed_leaf(x, types: dict[str, str], terms: dict[str, str]):
    cls = x.__class__
    if cls is TVar:
        return TVar(types.get(x.name, x.name))
    if cls is Freeze:
        return Freeze(terms.get(x.name, x.name))
    return x if cls is Lit or cls is Con and not x.args else None


def _rename(x, types: dict[str, str], terms: dict[str, str]) -> Walk:
    cls = x.__class__
    if cls is Con:
        args = []
        for arg in x.args:
            args.append(_renamed_leaf(arg, types, terms) or (yield _rename(arg, types, terms)))
        return Con(x.con, tuple(args))
    if cls is Forall or cls is FTyAbs:
        body = _renamed_leaf(x.body, types, terms) or (yield _rename(x.body, types, terms))
        return cls(types.get(x.var, x.var), body)
    if cls is LamAnn:
        ann = _renamed_leaf(x.ann, types, terms) or (yield _rename(x.ann, types, terms))
        body = _renamed_leaf(x.body, types, terms) or (yield _rename(x.body, types, terms))
        return LamAnn(terms.get(x.var, x.var), ann, body)
    if cls is App or cls is FTyApp:
        fn = _renamed_leaf(x.fn, types, terms) or (yield _rename(x.fn, types, terms))
        return cls(fn, _renamed_leaf(x.arg, types, terms) or (yield _rename(x.arg, types, terms)))
    raise TypeError(f"not a type or an F term: {x!r}")


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
    position; they are the only terms let-bindings generalise.  A let
    has its body's class if its bound term is a value, and is no value
    otherwise; the loop classifies each bound term before its body,
    which waits on a list.
    """
    bodies: list[Term] = []
    while True:
        while isinstance(m, (Let, LetAnn)):
            bodies.append(m.body)
            m = m.bound
        if isinstance(m, (Var, Lam, LamAnn, Lit)):
            term_class = TermClass.GVAL
        elif isinstance(m, Freeze):
            term_class = TermClass.VAL
        elif isinstance(m, App):
            term_class = TermClass.NONVAL
        elif isinstance(m, (Gen, Inst)):
            raise ValueError("classify applies to desugared terms only")
        else:
            raise TypeError(f"not a term: {m!r}")
        if not bodies:
            return term_class
        if term_class < TermClass.VAL:
            return TermClass.NONVAL
        m = bodies.pop()


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
    without sugar comes back as is.
    """
    supply: Optional[NameSupply] = None

    def walk(t: Term) -> Walk:
        nonlocal supply
        if isinstance(t, (Gen, Inst)):
            if supply is None:
                supply = NameSupply(names(m)[0])
            x = supply.fresh("g")
            tail = Freeze(x, t.span) if isinstance(t, Gen) else Var(x, t.span)
            body = t.body if isinstance(t.body, TERM_LEAVES) else (yield walk(t.body))
            return Let(x, body, tail, t.span)
        if isinstance(t, App):
            fields = ("fn", "arg")
        elif isinstance(t, (Lam, LamAnn)):
            fields = ("body",)
        elif isinstance(t, (Let, LetAnn)):
            fields = ("bound", "body")
        else:
            raise TypeError(f"not a term: {t!r}")
        changed = {}
        for name in fields:
            child = getattr(t, name)
            if not isinstance(child, TERM_LEAVES):
                expanded = yield walk(child)
                if expanded is not child:
                    changed[name] = expanded
        return replace(t, **changed) if changed else t

    return m if isinstance(m, TERM_LEAVES) else trampoline(walk(m))


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

class KindEnv:
    """Ordered rigid type variables, implicitly all monomorphic.  The
    names are the keys of a dict: it keeps their order and answers a
    lookup at once."""

    __slots__ = ("_names",)

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names = dict.fromkeys(names)

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def extend(self, *names: str) -> "KindEnv":
        return KindEnv((*self._names, *names))

    def get(self, name: str) -> Optional[Kind]:
        return Kind.MONO if name in self._names else None

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)


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
