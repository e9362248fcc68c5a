"""Type inference: algorithm W extended with kinds and the value restriction.

One :class:`freezeml.unify.Store` lives for each :func:`infer` call.
The cases read and extend it: fresh flexible variables enter at the
current let level, unification solves them in place, binders push and
pop the term environment, and a variable's type is read through the
solution when it is used.  Each case returns its inferred type, resolved,
and a derivation whose types may still mention variables solved later.
:func:`infer` resolves the tree once, at the end, and returns the
solution restricted to the input flexible environment, the paper's form.
The translation to the explicit core replays the resolved tree.

A let infers its bound term one level deeper.  The bound type's flexible
variables still deeper afterwards are reachable from no binding in scope:
a guarded value generalises them, and any other bound term keeps them,
demoted to the monomorphic kind and lowered to the let's level, because
its type now sits in the environment.  An annotated let checks its bound
term the same way, and its quantifier prefix escapes when a variable of
the prefix has been lowered to an outer level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .parser import normalize_type_names
from .statics import env_wf, split, wellscoped
from .subst import Subst
from .syntax import (
    App,
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
    RefinedKindEnv,
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
    has_sugar,
    is_gval,
    names,
    Var,
)
from .unify import Store, UnifyError


class InferError(Exception):
    def __init__(self, message: str, span: Optional[Span] = None):
        super().__init__(message)
        self.message = message
        self.span = span


class UnboundVar(InferError):
    def __init__(self, name: str, span: Optional[Span] = None):
        super().__init__(f"unbound variable {name!r}", span)
        self.name = name


class CannotUnify(InferError):
    def __init__(self, cause: UnifyError, span: Optional[Span] = None):
        super().__init__(cause.message, span)
        self.cause = cause
        self.left = cause.left
        self.right = cause.right


class AnnotationEscape(InferError):
    """A quantifier bound by a let annotation leaked into the substitution."""


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

TypeFn = Callable[[Type], Type]


@dataclass(frozen=True)
class DFreeze:
    name: str
    ty: Type

    def map_types(self, fn: TypeFn) -> "DFreeze":
        return DFreeze(self.name, fn(self.ty))


@dataclass(frozen=True)
class DVar:
    name: str
    prefix: tuple[str, ...]  # quantifier prefix of the scheme in the env
    inst: tuple[Type, ...]  # instantiation images, aligned with prefix
    ty: Type

    def map_types(self, fn: TypeFn) -> "DVar":
        return DVar(self.name, self.prefix, tuple(fn(t) for t in self.inst), fn(self.ty))


@dataclass(frozen=True)
class DLit:
    value: Union[int, bool]
    ty: Type

    def map_types(self, fn: TypeFn) -> "DLit":
        return DLit(self.value, fn(self.ty))


@dataclass(frozen=True)
class DLam:
    var: str
    arg_ty: Type
    body: "Derivation"
    ty: Type

    def map_types(self, fn: TypeFn) -> "DLam":
        return DLam(self.var, fn(self.arg_ty), self.body.map_types(fn), fn(self.ty))


@dataclass(frozen=True)
class DLamAnn:
    var: str
    ann: Type
    body: "Derivation"
    ty: Type

    def map_types(self, fn: TypeFn) -> "DLamAnn":
        return DLamAnn(self.var, self.ann, self.body.map_types(fn), fn(self.ty))


@dataclass(frozen=True)
class DApp:
    fn: "Derivation"
    arg: "Derivation"
    ty: Type

    def map_types(self, fn: TypeFn) -> "DApp":
        return DApp(self.fn.map_types(fn), self.arg.map_types(fn), fn(self.ty))


@dataclass(frozen=True)
class DLet:
    var: str
    gen_prefix: tuple[str, ...]  # abstraction prefix (empty unless guarded value)
    bound: "Derivation"
    var_ty: Type
    body: "Derivation"
    ty: Type

    def map_types(self, fn: TypeFn) -> "DLet":
        return DLet(
            self.var,
            self.gen_prefix,
            self.bound.map_types(fn),
            fn(self.var_ty),
            self.body.map_types(fn),
            fn(self.ty),
        )


@dataclass(frozen=True)
class DLetAnn:
    var: str
    ann: Type
    split_prefix: tuple[str, ...]
    bound: "Derivation"
    body: "Derivation"
    ty: Type

    def map_types(self, fn: TypeFn) -> "DLetAnn":
        return DLetAnn(
            self.var,
            self.ann,
            self.split_prefix,
            self.bound.map_types(fn),
            self.body.map_types(fn),
            fn(self.ty),
        )


Derivation = Union[DFreeze, DVar, DLit, DLam, DLamAnn, DApp, DLet, DLetAnn]


def term_of_derivation(d: Derivation) -> Term:
    if isinstance(d, DFreeze):
        return Freeze(d.name)
    if isinstance(d, DVar):
        return Var(d.name)
    if isinstance(d, DLit):
        return Lit(d.value)
    if isinstance(d, DLam):
        return Lam(d.var, term_of_derivation(d.body))
    if isinstance(d, DLamAnn):
        return LamAnn(d.var, d.ann, term_of_derivation(d.body))
    if isinstance(d, DApp):
        return App(term_of_derivation(d.fn), term_of_derivation(d.arg))
    if isinstance(d, DLet):
        return Let(d.var, term_of_derivation(d.bound), term_of_derivation(d.body))
    if isinstance(d, DLetAnn):
        return LetAnn(
            d.var, d.ann, term_of_derivation(d.bound), term_of_derivation(d.body)
        )
    raise TypeError(f"not a derivation: {d!r}")


# ---------------------------------------------------------------------------
# Auxiliary operators shared with the declarative system
# ---------------------------------------------------------------------------

def gen(delta_names, a: Type, m: Term) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Generalisable variables of `a` outside `delta_names`.

    The first component is the abstraction prefix: it equals the second
    for guarded values and is empty otherwise.
    """
    outside = set(delta_names)
    generalisable = tuple(v for v in ftv_ordered(a) if v not in outside)
    if is_gval(m):
        return generalisable, generalisable
    return (), generalisable


@dataclass(frozen=True)
class InferResult:
    env: RefinedKindEnv
    subst: Subst
    ty: Type
    derivation: Derivation


def infer(
    delta: KindEnv,
    theta: RefinedKindEnv,
    gamma: TypeEnv,
    m: Term,
    supply: NameSupply,
) -> InferResult:
    """Infer a type for the desugared, well-scoped term `m`.

    The returned substitution's domain is exactly `theta`, and every type
    in the derivation is resolved.
    """
    store = Store(delta, theta, supply, gamma)
    ty, deriv = _infer(store, m)
    return InferResult(
        store.theta(),
        store.solution(theta.names()),
        ty,
        deriv.map_types(store.apply),
    )


def _unify(store: Store, a: Type, b: Type, span: Optional[Span]) -> None:
    try:
        store.unify(a, b)
    except UnifyError as err:
        raise CannotUnify(err, span) from None


def _infer(store: Store, m: Term) -> tuple[Type, Derivation]:
    if isinstance(m, Freeze):
        ty = store.scheme(m.name)
        if ty is None:
            raise UnboundVar(m.name, m.span)
        return ty, DFreeze(m.name, ty)

    if isinstance(m, Var):
        scheme = store.scheme(m.name)
        if scheme is None:
            raise UnboundVar(m.name, m.span)
        prefix, guarded = decompose(scheme)
        fresh = [TVar(store.fresh(Kind.POLY)) for _ in prefix]
        ty = Subst(dict(zip(prefix, fresh))).apply(guarded)
        return ty, DVar(m.name, prefix, tuple(fresh), ty)

    if isinstance(m, Lit):
        return m.type, DLit(m.value, m.type)

    if isinstance(m, Lam):
        a = store.fresh(Kind.MONO)
        store.bind(m.var, TVar(a))
        body_ty, body_deriv = _infer(store, m.body)
        store.unbind(m.var)
        arg_ty = store.resolved(a)
        ty = arrow(arg_ty, body_ty)
        return ty, DLam(m.var, arg_ty, body_deriv, ty)

    if isinstance(m, LamAnn):
        store.bind(m.var, m.ann)
        body_ty, body_deriv = _infer(store, m.body)
        store.unbind(m.var)
        ty = arrow(m.ann, body_ty)
        return ty, DLamAnn(m.var, m.ann, body_deriv, ty)

    if isinstance(m, App):
        fn_ty, fn_deriv = _infer(store, m.fn)
        arg_ty, arg_deriv = _infer(store, m.arg)
        b = store.fresh(Kind.POLY)
        _unify(store, store.apply(fn_ty), arrow(arg_ty, TVar(b)), m.span)
        result_ty = store.resolved(b)
        return result_ty, DApp(fn_deriv, arg_deriv, result_ty)

    if isinstance(m, Let):
        store.level += 1
        bound_ty, bound_deriv = _infer(store, m.bound)
        store.level -= 1
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
        store.bind(m.var, var_ty)
        body_ty, body_deriv = _infer(store, m.body)
        store.unbind(m.var)
        deriv = DLet(m.var, prefix, bound_deriv, var_ty, body_deriv, body_ty)
        return body_ty, deriv

    if isinstance(m, LetAnn):
        prefix, split_ty = split(m.ann, m.bound)
        if not store.rigid.isdisjoint(prefix):
            raise InferError(
                "annotation rebinds a type variable already in scope", m.span
            )
        store.level += 1
        store.rigid.update(prefix)
        store.levels.update(dict.fromkeys(prefix, store.level))
        bound_ty, bound_deriv = _infer(store, m.bound)
        _unify(store, split_ty, bound_ty, m.span)
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
        store.bind(m.var, m.ann)
        body_ty, body_deriv = _infer(store, m.body)
        store.unbind(m.var)
        deriv = DLetAnn(
            m.var, m.ann, prefix, bound_deriv, body_deriv, body_ty
        )
        return body_ty, deriv

    if isinstance(m, (Gen, Inst)):
        raise ValueError("infer applies to desugared terms only")
    raise TypeError(f"not a term: {m!r}")


def make_supply(
    delta: KindEnv, theta: RefinedKindEnv, gamma: TypeEnv, m: Term
) -> NameSupply:
    """The name supply for inferring `m` under `delta`, `theta`; `gamma`.

    One walk of :func:`freezeml.syntax.names` over `m` and Γ's types
    collects what the supply must avoid, together with the names of Δ
    and Θ: every term variable of `m`, every type variable of its
    annotations and of Γ, free or bound.
    """
    term_vars, type_vars = names(m, *(ty for _, ty in gamma))
    return NameSupply((*delta.names(), *theta.names(), *type_vars, *term_vars))


def check_program(delta: KindEnv, gamma: TypeEnv, m: Term) -> InferResult:
    """The checking pipeline: infer program `m` under `delta`; `gamma`.

    Accepts surface terms: sugar is expanded, then well-scopedness and
    environment well-formedness are checked before inference runs under
    an empty flexible environment.  Raises StaticsError or InferError.
    """
    if has_sugar(m):
        m = desugar(m)
    wellscoped(delta, m)
    env_wf(RefinedKindEnv.of_kind_env(delta), gamma)
    theta = RefinedKindEnv()
    return infer(delta, theta, gamma, m, make_supply(delta, theta, gamma, m))


def infer_top(gamma: TypeEnv, m: Term) -> Type:
    """The display-normalised type of `m` under empty type environments."""
    return normalize_type_names(check_program(KindEnv(), gamma, m).ty)
