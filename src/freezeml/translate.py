"""Type-preserving translations between the surface language and System F.

Outbound, a recorded inference derivation drives elaboration: variable
occurrences become type applications of their recorded instantiations,
and let-bindings wrap their bound term in the recorded abstraction
prefix.  :func:`elaborate` is the one elaboration path: it grounds and
replays the derivation, translates it, and typechecks the result in
System F at the derivation's type, so every core term it returns has
been checked.

Inbound, type abstraction and application are encoded as annotated lets
whose bound term is instantiated with the ``M@`` sugar, as the paper
states the translation; :func:`desugar` expands it like any other
``@``.  A value redex ``(\\x:A. V) W`` comes back as
``let (x : A) = W in V``, so the encoding of a core value is a surface
value.  The naive encoding without the ``@`` is kept behind a flag as a
negative example, since a frozen variable cannot be implicitly
instantiated to the annotated type.

The readable names of both directions avoid every name of the core
term; the walk collecting them leaves types to :func:`names`.
"""

from __future__ import annotations

from typing import Iterator

from .declcheck import replay
from .infer import (
    DApp,
    DFreeze,
    DLam,
    DLamAnn,
    DLet,
    DLetAnn,
    DLit,
    DVar,
    Derivation,
    InferResult,
    check_program,
)
from .parser import display_term_names, display_type_names, rename_type
from .subst import substitute
from .unify import reader
from .syntax import (
    App,
    Forall,
    Freeze,
    Inst,
    KindEnv,
    LamAnn,
    LetAnn,
    Lit,
    Scope,
    Term,
    TVar,
    Type,
    TypeEnv,
    alpha_eq,
    arrow,
    decompose,
    foralls,
    is_internal_name,
    names,
    t_int,
)
from .systemf import (
    FApp,
    FLam,
    FLit,
    FTerm,
    FTyAbs,
    FTyApp,
    FVar,
    TypeMismatch,
    f_let,
    f_tyabs_many,
    f_typecheck,
)

__all__ = [
    "Derivation",
    "elaborate",
    "ground_derivation",
    "rebuild_derivation",
    "to_systemf",
    "from_systemf",
    "readable_fterm",
]


def ground_derivation(
    delta: KindEnv, gamma: TypeEnv, result: InferResult
) -> Derivation:
    """Materialise the typing derivation of a checked program.

    Residual flexible variables are grounded to Int (closed elaboration:
    the core has no flexible variables).  Grounding and resolution are
    one reading of the derivation as written: the residuals join a copy
    of the store's images, solved to Int, every image is resolved once,
    and one memo serves every type of the tree.  The finished tree is
    replayed through the declarative rules as a self-check.
    """
    images = {**result.store.images, **dict.fromkeys(result.env, t_int)}
    derivation = result.raw.map_types(reader(images))
    replay(delta, gamma, derivation)
    return derivation


def rebuild_derivation(delta: KindEnv, gamma: TypeEnv, m: Term) -> Derivation:
    """Check `m` and materialise its grounded, replayed derivation."""
    return ground_derivation(delta, gamma, check_program(delta, gamma, m))


def elaborate(
    delta: KindEnv, gamma: TypeEnv, result: InferResult
) -> tuple[FTerm, Type]:
    """The core term of a checked program and its System F type.

    Grounds and replays the derivation, translates it, and typechecks
    the translation at the derivation's type.  Elaboration preserves
    types, so an :class:`FTypeError` here is a fault of the checker, not
    a type error of the program, and propagates.
    """
    derivation = ground_derivation(delta, gamma, result)
    elaborated = to_systemf(derivation)
    checked = f_typecheck(delta, gamma, elaborated)
    if not alpha_eq(checked, derivation.ty):
        raise TypeMismatch(derivation.ty, checked)
    return elaborated, checked


def to_systemf(d: Derivation) -> FTerm:
    """Elaborate a valid derivation into the explicitly typed core."""
    if isinstance(d, DFreeze):
        return FVar(d.name)
    if isinstance(d, DVar):
        result: FTerm = FVar(d.name)
        for image in d.inst:
            result = FTyApp(result, image)
        return result
    if isinstance(d, DLit):
        return FLit(d.value)
    if isinstance(d, DLam):
        return FLam(d.var, d.arg_ty, to_systemf(d.body))
    if isinstance(d, DLamAnn):
        return FLam(d.var, d.ann, to_systemf(d.body))
    if isinstance(d, DApp):
        return FApp(to_systemf(d.fn), to_systemf(d.arg))
    if isinstance(d, DLet):
        bound = f_tyabs_many(d.gen_prefix, to_systemf(d.bound))
        return f_let(d.var, d.var_ty, bound, to_systemf(d.body))
    if isinstance(d, DLetAnn):
        bound = f_tyabs_many(d.split_prefix, to_systemf(d.bound))
        return f_let(d.var, d.ann, bound, to_systemf(d.body))
    raise TypeError(f"not a derivation: {d!r}")


def from_systemf(
    delta: KindEnv,
    gamma: TypeEnv,
    t: FTerm,
    naive_tyapp: bool = False,
) -> Term:
    """Encode a well-typed core term in the surface language.

    Type abstraction ``/\\a. V`` becomes ``let (x : forall a. A) = V@ in ~x``,
    type application ``M [B]`` becomes ``let (x : A[B/a]) = M@ in ~x``,
    and a value redex ``(\\x:A. V) W`` becomes ``let (x : A) = W in V``,
    so that the encoding of a value is a value; the ``@`` sugar is left
    for :func:`desugar` to expand.  With `naive_tyapp` the ``@`` of the
    type-application case is left out, which breaks typeability whenever
    the operand is a frozen variable or application (kept as a negative
    example on purpose).

    The let binders get readable names in pre-order, and the annotation
    prefixes readable type names, none of them a name of `t`.  Raises
    :class:`FTypeError` when `t` does not typecheck; otherwise `t` is
    typechecked once, and each annotation is built from the types of
    the subterms below it, read off one :class:`freezeml.syntax.Scope`
    built from `gamma` that each lambda pushes and pops.
    """
    term_names, type_names = _fterm_names(t)
    binders = display_term_names(set(term_names))
    letters = display_type_names(
        {*type_names, *delta.names(), *names(*(ty for _, ty in gamma))[1]}
    )

    def go(env: Scope, x: FTerm) -> tuple[Term, Type, bool]:
        """The translation of `x`, its F type by f_typecheck's rules, and
        whether `x` is an F value, read off the flags of its children."""
        if isinstance(x, FVar):
            return Freeze(x.name), env.lookup(x.name), True
        if isinstance(x, FLit):
            return Lit(x.value), x.type, True
        if isinstance(x, FLam):
            body, body_ty, _ = go(env.push(x.var, x.ann), x.body)
            env.pop(x.var)
            return LamAnn(x.var, x.ann, body), arrow(x.ann, body_ty), True
        if isinstance(x, FApp) and isinstance(x.fn, FLam):
            lam = x.fn
            body, body_ty, body_value = go(env.push(lam.var, lam.ann), lam.body)
            env.pop(lam.var)
            arg, _, arg_value = go(env, x.arg)
            if body_value and arg_value:
                return LetAnn(lam.var, lam.ann, arg, body), body_ty, True
            return App(LamAnn(lam.var, lam.ann, body), arg), body_ty, False
        if isinstance(x, FApp):
            fn, fn_ty, _ = go(env, x.fn)
            arg, _, _ = go(env, x.arg)
            return App(fn, arg), fn_ty.args[1], False
        if isinstance(x, FTyAbs):
            var = next(binders)
            translated, body_ty, _ = go(env, x.body)
            # The body type's own quantifier prefix is about to be peeled
            # into scope over the bound term, where translated inner
            # abstractions restate the same binders; give the annotation
            # copy fresh names so the scopes stay disjoint.
            ann = Forall(x.var, _freshen_prefix(body_ty, letters))
            encoded = LetAnn(var, ann, Inst(translated), Freeze(var))
            return encoded, Forall(x.var, body_ty), True
        if isinstance(x, FTyApp):
            var = next(binders)
            translated, fn_ty, fn_value = go(env, x.fn)
            result_ty = substitute({fn_ty.var: x.arg}, fn_ty.body)
            ann = _freshen_prefix(result_ty, letters)
            bound = translated if naive_tyapp else Inst(translated)
            is_inst = fn_value and isinstance(x.fn, (FVar, FLit, FTyApp))
            return LetAnn(var, ann, bound, Freeze(var)), result_ty, is_inst
        raise TypeError(f"not an F term: {x!r}")

    f_typecheck(delta, gamma, t)  # precondition: every type below exists
    return go(Scope(gamma), t)[0]


def readable_fterm(t: FTerm) -> FTerm:
    """Rename the internal names of an elaborated term for display.

    Internal type names become a, b, ... and internal term names x, y,
    ..., each in order of first occurrence and none of them a name of
    `t`.  The renaming is one to one onto fresh names, so the term means
    and typechecks the same.
    """
    term_names, type_names = _fterm_names(t)
    term_map = _readable_names(term_names, display_term_names)
    type_map = _readable_names(type_names, display_type_names)
    if not term_map and not type_map:
        return t

    def go(x: FTerm) -> FTerm:
        if isinstance(x, FVar):
            return FVar(term_map.get(x.name, x.name))
        if isinstance(x, FLit):
            return x
        if isinstance(x, FLam):
            var = term_map.get(x.var, x.var)
            return FLam(var, rename_type(x.ann, type_map), go(x.body))
        if isinstance(x, FApp):
            return FApp(go(x.fn), go(x.arg))
        if isinstance(x, FTyAbs):
            return FTyAbs(type_map.get(x.var, x.var), go(x.body))
        if isinstance(x, FTyApp):
            return FTyApp(go(x.fn), rename_type(x.arg, type_map))
        raise TypeError(f"not an F term: {x!r}")

    return go(t)


def _readable_names(names: dict[str, None], generator) -> dict[str, str]:
    internal = [name for name in names if is_internal_name(name)]
    taken = {name for name in names if not is_internal_name(name)}
    return dict(zip(internal, generator(taken)))


def _freshen_prefix(ann: Type, letters: Iterator[str]) -> Type:
    prefix, body = decompose(ann)
    if not prefix:
        return ann
    new_names = [next(letters) for _ in prefix]
    renaming = {name: TVar(fresh) for name, fresh in zip(prefix, new_names)}
    return foralls(new_names, substitute(renaming, body))


def _fterm_names(t: FTerm) -> tuple[dict[str, None], dict[str, None]]:
    """Term and type variable names of `t`, free or bound, each in order
    of first occurrence in a pre-order walk (as the keys of a dict) that
    hands each type it meets to :func:`freezeml.syntax.names`."""
    terms: dict[str, None] = {}
    types: dict[str, None] = {}
    stack: list = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, FVar):
            terms[x.name] = None
        elif isinstance(x, FLam):
            terms[x.var] = None
            stack += (x.body, x.ann)
        elif isinstance(x, (FApp, FTyApp)):
            stack += (x.arg, x.fn)
        elif isinstance(x, FTyAbs):
            types[x.var] = None
            stack.append(x.body)
        elif isinstance(x, Type):
            types.update(names(x)[1])
    return terms, types
