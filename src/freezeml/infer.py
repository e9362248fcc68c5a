"""Type inference: algorithm W extended with kinds and the value restriction.

One :class:`freezeml.unify.Store` lives for each :func:`infer` call.
The cases read and extend it: fresh flexible variables enter at the
current let level, unification solves them in place, binders push and
pop the term environment, and a variable's type is read through the
solution when it is used.  An application whose function type is an
arrow, as written or through a solved variable, unifies the arrow's
domain with the argument's type and has its codomain as its type; any
other function type is unified with ``argument -> b`` for a fresh ``b``,
as in the paper.  Each case returns its derivation node as written,
and a parent reads the child's type from its ``ty``: the types may
mention variables solved later, which the store's images link to.  A
let reads its bound type through the solution once, before it
generalises.  :func:`infer` reads the root's type through the solution
and returns the solution restricted to the input flexible environment,
the paper's form, as a plain dict; the derivation is read through the
solution when first asked for.  The translation to the explicit core
replays the resolved tree.

A derivation node is the term node it derives, with derivations as
children, plus what its rule chose: its type, a variable's
instantiation, a let's prefix.  The quantifier prefix a variable's
images instantiate is its scheme's in Γ, so the node does not copy it.
Term functions such as :func:`freezeml.syntax.classify` and
:func:`freezeml.parser.render_term` read derivations directly.

A let infers its bound term one level deeper.  The bound type's flexible
variables still deeper afterwards are reachable from no binding in scope:
a guarded value generalises them, and any other bound term keeps them,
demoted to the monomorphic kind and lowered to the let's level, because
its type now sits in the environment.  An annotated let checks its bound
term the same way, and its quantifier prefix escapes when a variable of
the prefix has been lowered to an outer level.

:func:`check_program` always passes the program through
:func:`freezeml.syntax.desugar`, which hands a term without sugar back
as is.  A failed unification names both types, read through the
solution and normalised together for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

from .parser import normalize_type_names, render_type
from .statics import env_wf, split, wellscoped
from .subst import substitute
from .syntax import (
    ARROW,
    App,
    Con,
    Freeze,
    Gen,
    Inst,
    Kind,
    KindEnv,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Lit,
    NameSupply,
    Span,
    TVar,
    Term,
    Type,
    TypeEnv,
    arrow,
    decompose,
    desugar,
    foralls,
    ftv_ordered,
    is_gval,
    names,
    Var,
    Walk,
    trampoline,
)
from .unify import Store, UnifyError, reader


class InferError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.span = span

    @property
    def message(self) -> str:
        return str(self)


class UnboundVar(InferError):
    def __init__(self, name: str, span: Optional[Span] = None):
        super().__init__(f"unbound variable {name!r}", span)
        self.name = name


class CannotUnify(InferError):
    """`left` and `right` are the types that failed, read through the
    solution.  The message names both, normalised together so that they
    share display names; it is rendered only when read."""

    def __init__(self, cause: UnifyError, left: Type, right: Type, span: Optional[Span]):
        super().__init__(cause.message, span)
        self.cause = cause
        self.left = left
        self.right = right

    def __str__(self) -> str:
        both = normalize_type_names(arrow(self.left, self.right))
        left, right = (render_type(t) for t in both.args)
        return f"{self.cause.message}: {left} vs {right}"


class AnnotationEscape(InferError):
    """A quantifier bound by a let annotation leaked into the substitution."""


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

TypeFn = Callable[[Type], Type]


class _Derived:
    __slots__ = ()

    def map_types(self, fn: TypeFn) -> "Derivation":
        """This derivation with `fn` applied to every type it records."""
        return _map_leaf(self, fn) or trampoline(_map_types(self, fn))


# The rule's choices are keyword-only fields: the term's span has a default.

@dataclass(frozen=True, kw_only=True)
class DFreeze(Freeze, _Derived):
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DVar(Var, _Derived):
    inst: tuple[Type, ...]  # images of the prefix of the scheme in Γ
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DLit(Lit, _Derived):
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DLam(Lam, _Derived):
    arg_ty: Type
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DLamAnn(LamAnn, _Derived):
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DApp(App, _Derived):
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DLet(Let, _Derived):
    gen_prefix: tuple[str, ...]  # abstraction prefix (empty unless guarded value)
    var_ty: Type
    ty: Type


@dataclass(frozen=True, kw_only=True)
class DLetAnn(LetAnn, _Derived):
    split_prefix: tuple[str, ...]
    ty: Type


Derivation = Union[DFreeze, DVar, DLit, DLam, DLamAnn, DApp, DLet, DLetAnn]


def _map_leaf(d: Derivation, fn: TypeFn) -> Optional[Derivation]:
    if isinstance(d, DFreeze):
        return DFreeze(d.name, d.span, ty=fn(d.ty))
    if isinstance(d, DVar):
        inst = tuple(fn(t) for t in d.inst)
        return DVar(d.name, d.span, inst=inst, ty=fn(d.ty))
    if isinstance(d, DLit):
        return DLit(d.value, d.span, ty=fn(d.ty))
    return None


def _map_types(d: Derivation, fn: TypeFn) -> Walk:
    if isinstance(d, (DLam, DLamAnn)):
        body = _map_leaf(d.body, fn) or (yield _map_types(d.body, fn))
        if isinstance(d, DLam):
            return DLam(d.var, body, d.span, arg_ty=fn(d.arg_ty), ty=fn(d.ty))
        return DLamAnn(d.var, d.ann, body, d.span, ty=fn(d.ty))
    if isinstance(d, DApp):
        fn_d = _map_leaf(d.fn, fn) or (yield _map_types(d.fn, fn))
        arg_d = _map_leaf(d.arg, fn) or (yield _map_types(d.arg, fn))
        return DApp(fn_d, arg_d, d.span, ty=fn(d.ty))
    bound = _map_leaf(d.bound, fn) or (yield _map_types(d.bound, fn))
    body = _map_leaf(d.body, fn) or (yield _map_types(d.body, fn))
    if isinstance(d, DLet):
        return DLet(
            d.var, bound, body, d.span,
            gen_prefix=d.gen_prefix, var_ty=fn(d.var_ty), ty=fn(d.ty),
        )
    return DLetAnn(
        d.var, d.ann, bound, body, d.span, split_prefix=d.split_prefix, ty=fn(d.ty)
    )


# ---------------------------------------------------------------------------
# Auxiliary operators shared with the declarative system
# ---------------------------------------------------------------------------

def gen(delta_names, a: Type, m: Term) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Generalisable variables of `a` outside `delta_names`, a container
    of names such as Δ itself.

    The first component is the abstraction prefix: it equals the second
    for guarded values and is empty otherwise.
    """
    generalisable = tuple(v for v in ftv_ordered(a) if v not in delta_names)
    if is_gval(m):
        return generalisable, generalisable
    return (), generalisable


@dataclass(frozen=True)
class InferResult:
    """What :func:`infer` found.  `env` is the refined kind environment Θ'
    of the residual flexible variables, in order of creation; `subst` is
    the substitution θ, with keys exactly the input Θ's, in its order.
    `raw` is the derivation as written and `store` the finished store
    whose images it links to; :attr:`derivation` reads it through the
    solution on first read."""

    env: dict[str, Kind]
    subst: dict[str, Type]
    ty: Type
    raw: Derivation = field(repr=False, compare=False)
    store: Store = field(repr=False, compare=False)

    @cached_property
    def derivation(self) -> Derivation:
        """The derivation with every type resolved."""
        return self.raw.map_types(reader(self.store.images))


def infer(
    delta: KindEnv,
    theta: dict[str, Kind],
    gamma: TypeEnv,
    m: Term,
    supply: NameSupply,
) -> InferResult:
    """Infer a type for the desugared, well-scoped term `m`.

    The returned substitution's keys are exactly `theta`'s, and every
    type in the derivation is resolved when it is first read.
    """
    store = Store(delta, theta, supply, gamma)
    root = _infer_leaf(store, m) or trampoline(_infer(store, m))
    return InferResult(
        store.theta(), store.solution(theta), store.apply(root.ty), root, store
    )


def _unify(store: Store, a: Type, b: Type, span: Optional[Span]) -> None:
    try:
        store.unify(a, b)
    except UnifyError as err:
        left, right = store.apply(err.left), store.apply(err.right)
        raise CannotUnify(err, left, right, span) from None


def _infer_leaf(store: Store, m: Term) -> Optional[Derivation]:
    """The derivation of a leaf `m`; None for any other term."""
    if isinstance(m, (Freeze, Var)):
        scheme = store.scheme(m.name)
        if scheme is None:
            raise UnboundVar(m.name, m.span)
        if isinstance(m, Freeze):
            return DFreeze(m.name, m.span, ty=scheme)
        prefix, guarded = decompose(scheme)
        fresh = tuple(TVar(store.fresh(Kind.POLY)) for _ in prefix)
        ty = substitute(dict(zip(prefix, fresh)), guarded)
        return DVar(m.name, m.span, inst=fresh, ty=ty)

    if isinstance(m, Lit):
        return DLit(m.value, m.span, ty=m.type)
    return None


def _infer(store: Store, m: Term) -> Walk:
    if isinstance(m, (Lam, LamAnn)):
        arg_ty = m.ann if isinstance(m, LamAnn) else TVar(store.fresh(Kind.MONO))
        store.gamma.push(m.var, arg_ty)
        body = _infer_leaf(store, m.body) or (yield _infer(store, m.body))
        store.gamma.pop(m.var)
        ty = arrow(arg_ty, body.ty)
        if isinstance(m, LamAnn):
            return DLamAnn(m.var, m.ann, body, m.span, ty=ty)
        return DLam(m.var, body, m.span, arg_ty=arg_ty, ty=ty)

    if isinstance(m, App):
        fn = _infer_leaf(store, m.fn) or (yield _infer(store, m.fn))
        arg = _infer_leaf(store, m.arg) or (yield _infer(store, m.arg))
        head = store.head(fn.ty)
        if type(head) is Con and head.con == ARROW:
            # A known arrow is taken apart: its domain meets the argument
            # and its codomain is the result, with no fresh variable.
            domain, ty = head.args
            _unify(store, domain, arg.ty, m.span)
        else:
            ty = TVar(store.fresh(Kind.POLY))
            _unify(store, fn.ty, arrow(arg.ty, ty), m.span)
        return DApp(fn, arg, m.span, ty=ty)

    if isinstance(m, Let):
        store.level += 1
        bound = _infer_leaf(store, m.bound) or (yield _infer(store, m.bound))
        store.level -= 1
        bound_ty = store.apply(bound.ty)
        # Variables still deeper than this let are reachable from no
        # binding in scope, so only they may generalise.
        deeper = [
            v
            for v in ftv_ordered(bound_ty)
            if v in store.kinds and store.levels[v] > store.level
        ]
        prefix = tuple(deeper) if is_gval(m.bound) else ()
        for v in deeper:
            if prefix:
                del store.kinds[v]
            else:  # the binding's type now sits in the environment
                store.kinds[v] = Kind.MONO
                store.levels[v] = store.level
        var_ty = foralls(prefix, bound_ty)
    elif isinstance(m, LetAnn):
        prefix, split_ty = split(m.ann, m.bound)
        if not store.rigid.isdisjoint(prefix):
            raise InferError(
                "annotation rebinds a type variable already in scope", m.span
            )
        store.level += 1
        store.rigid.update(prefix)
        store.levels.update(dict.fromkeys(prefix, store.level))
        bound = _infer_leaf(store, m.bound) or (yield _infer(store, m.bound))
        _unify(store, split_ty, bound.ty, m.span)
        store.level -= 1
        store.rigid.difference_update(prefix)
        # A prefix variable lowered to this level or an outer one is
        # reachable from a binding outside the annotation's scope.
        escaped = [
            v for v in dict.fromkeys(prefix) if store.levels.pop(v) <= store.level
        ]
        if escaped:
            raise AnnotationEscape(
                f"annotation variables {sorted(escaped)} escape their binding",
                m.span,
            )
        var_ty = m.ann
    elif isinstance(m, (Gen, Inst)):
        raise ValueError("infer applies to desugared terms only")
    else:
        raise TypeError(f"not a term: {m!r}")
    store.gamma.push(m.var, var_ty)
    body = _infer_leaf(store, m.body) or (yield _infer(store, m.body))
    store.gamma.pop(m.var)
    if isinstance(m, Let):
        return DLet(m.var, bound, body, m.span, gen_prefix=prefix, var_ty=var_ty, ty=body.ty)
    return DLetAnn(m.var, m.ann, bound, body, m.span, split_prefix=prefix, ty=body.ty)


def make_supply(
    delta: KindEnv, theta: dict[str, Kind], gamma: TypeEnv, m: Term
) -> NameSupply:
    """The name supply for inferring `m` under `delta`, `theta`; `gamma`.

    One walk of :func:`freezeml.syntax.names` over `m` and Γ's types
    collects what the supply must avoid, together with the names of Δ
    and Θ: every term variable of `m`, every type variable of its
    annotations and of Γ, free or bound.
    """
    term_vars, type_vars = names(m, *(ty for _, ty in gamma))
    return NameSupply((*delta.names(), *theta, *type_vars, *term_vars))


def check_program(delta: KindEnv, gamma: TypeEnv, m: Term) -> InferResult:
    """The checking pipeline: infer program `m` under `delta`; `gamma`.

    Accepts surface terms: sugar is expanded, then well-scopedness and
    environment well-formedness are checked before inference runs under
    an empty flexible environment.  Raises StaticsError or InferError.
    """
    m = desugar(m)
    wellscoped(delta, m)
    env_wf(delta, gamma)
    theta: dict[str, Kind] = {}
    return infer(delta, theta, gamma, m, make_supply(delta, theta, gamma, m))
