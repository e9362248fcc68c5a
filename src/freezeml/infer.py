"""Type inference: algorithm W extended with kinds and the value restriction.

The algorithm threads a fixed rigid environment, a refined flexible
environment, and an explicit name supply.  Each case returns the final
flexible environment, a sparse substitution, and the inferred type.  The
substitution holds every variable solved so far, the case's own fresh
variables included, with each image fully resolved; the inferred type is
resolved too.  Alongside, each case records a derivation tree whose types
may still mention variables solved later.  :func:`infer` resolves the tree
once, with the final substitution, and restricts that substitution to the
input flexible environment, the paper's form.  The translation to the
explicit core replays the resolved tree.

Let-bindings decide generalisation via the value restriction: guarded
values abstract their generalisable variables, everything else keeps
them flexible but demoted to the monomorphic kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .parser import normalize_type_names
from .statics import env_wf, split, wellscoped
from .subst import Subst, demote
from .syntax import (
    App,
    Con,
    Forall,
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
    all_type_names,
    annotation_type_names,
    arrow,
    decompose,
    desugar,
    foralls,
    ftv_ordered,
    ftv_set,
    has_sugar,
    is_gval,
    term_names,
    Var,
)
from .unify import UnifyError, unify_sparse


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
    env, subst, ty, deriv = _infer(delta, theta, gamma, m, supply)
    return InferResult(
        env, subst.restrict(theta.names()), ty, deriv.map_types(subst.apply)
    )


_EMPTY = Subst()


def _images(subst: Subst, theta: RefinedKindEnv) -> set[str]:
    """Free variables of the images of theta's names."""
    return {v for name in theta.names() for v in ftv_set(subst.lookup(name))}


def _infer(
    delta: KindEnv,
    theta: RefinedKindEnv,
    gamma: TypeEnv,
    m: Term,
    supply: NameSupply,
) -> tuple[RefinedKindEnv, Subst, Type, Derivation]:
    if isinstance(m, Freeze):
        ty = gamma.lookup(m.name)
        if ty is None:
            raise UnboundVar(m.name, m.span)
        return theta, _EMPTY, ty, DFreeze(m.name, ty)

    if isinstance(m, Var):
        scheme = gamma.lookup(m.name)
        if scheme is None:
            raise UnboundVar(m.name, m.span)
        prefix, guarded = decompose(scheme)
        fresh = supply.fresh_many(len(prefix))
        inst = Subst(dict(zip(prefix, (TVar(b) for b in fresh))))
        ty = inst.apply(guarded)
        env = theta
        for b in fresh:
            env = env.extend(b, Kind.POLY)
        deriv = DVar(m.name, prefix, tuple(TVar(b) for b in fresh), ty)
        return env, _EMPTY, ty, deriv

    if isinstance(m, Lit):
        return theta, _EMPTY, m.type, DLit(m.value, m.type)

    if isinstance(m, Lam):
        a = supply.fresh()
        env1, subst, body_ty, body_deriv = _infer(
            delta,
            theta.extend(a, Kind.MONO),
            gamma.extend(m.var, TVar(a)),
            m.body,
            supply,
        )
        arg_ty = subst.lookup(a)
        ty = arrow(arg_ty, body_ty)
        return env1, subst, ty, DLam(m.var, arg_ty, body_deriv, ty)

    if isinstance(m, LamAnn):
        env1, subst, body_ty, body_deriv = _infer(
            delta, theta, gamma.extend(m.var, m.ann), m.body, supply
        )
        ty = arrow(m.ann, body_ty)
        return env1, subst, ty, DLamAnn(m.var, m.ann, body_deriv, ty)

    if isinstance(m, App):
        env1, s1, fn_ty, fn_deriv = _infer(delta, theta, gamma, m.fn, supply)
        env2, s2, arg_ty, arg_deriv = _infer(
            delta, env1, s1.apply_env(gamma), m.arg, supply
        )
        b = supply.fresh()
        try:
            env3, u = unify_sparse(
                delta,
                env2.extend(b, Kind.POLY),
                s2.apply(fn_ty),
                arrow(arg_ty, TVar(b)),
                supply,
            )
        except UnifyError as err:
            raise CannotUnify(err, m.span) from None
        result_ty = u.lookup(b)
        deriv = DApp(fn_deriv, arg_deriv, result_ty)
        return env3, s1.then(s2).then(u), result_ty, deriv

    if isinstance(m, Let):
        env1, s1, bound_ty, bound_deriv = _infer(delta, theta, gamma, m.bound, supply)
        # The images of theta's names are what the enclosing environment
        # sees; generalising a variable they mention would be unsound.
        pinned = [v for v in _images(s1, theta) if v not in delta]
        basis = tuple(delta.names()) + tuple(pinned)
        prefix, generalisable = gen(basis, bound_ty, m.bound)
        demoted = demote(Kind.MONO, env1, generalisable)
        var_ty = foralls(prefix, bound_ty)
        env2, s2, body_ty, body_deriv = _infer(
            delta,
            demoted.remove(prefix),
            s1.apply_env(gamma).extend(m.var, var_ty),
            m.body,
            supply,
        )
        deriv = DLet(m.var, prefix, bound_deriv, var_ty, body_deriv, body_ty)
        return env2, s1.then(s2), body_ty, deriv

    if isinstance(m, LetAnn):
        prefix, split_ty = split(m.ann, m.bound)
        if set(prefix) & set(delta.names()):
            raise InferError(
                "annotation rebinds a type variable already in scope", m.span
            )
        inner_delta = delta.extend(*prefix)
        env1, s1, bound_ty, bound_deriv = _infer(
            inner_delta, theta, gamma, m.bound, supply
        )
        try:
            env2, u = unify_sparse(inner_delta, env1, split_ty, bound_ty, supply)
        except UnifyError as err:
            raise CannotUnify(err, m.span) from None
        s2 = s1.then(u)
        # Variables made inside the bound term may mention the prefix;
        # only the images of theta's names must not.
        escaped = _images(s2, theta) & set(prefix)
        if escaped:
            raise AnnotationEscape(
                f"annotation variables {sorted(escaped)} escape their binding",
                m.span,
            )
        env3, s3, body_ty, body_deriv = _infer(
            delta,
            env2,
            s2.apply_env(gamma).extend(m.var, m.ann),
            m.body,
            supply,
        )
        deriv = DLetAnn(
            m.var, m.ann, prefix, bound_deriv, body_deriv, body_ty
        )
        return env3, s2.then(s3), body_ty, deriv

    if isinstance(m, (Gen, Inst)):
        raise ValueError("infer applies to desugared terms only")
    raise TypeError(f"not a term: {m!r}")


def make_supply(
    delta: KindEnv, theta: RefinedKindEnv, gamma: TypeEnv, m: Term
) -> NameSupply:
    avoid = set(delta.names()) | set(theta.names())
    avoid |= gamma.type_names()
    avoid |= annotation_type_names(m)
    avoid |= term_names(m)
    return NameSupply(avoid)


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
