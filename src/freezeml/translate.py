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
term, which :func:`names` collects as it does a surface term's: the
core term is built of the same nodes (see :mod:`freezeml.syntax`).
"""

from __future__ import annotations

from typing import Iterator, Optional

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
from .parser import display_term_names, display_type_names
from .subst import substitute
from .unify import reader
from .syntax import (
    App,
    Forall,
    Freeze,
    FTyAbs,
    FTyApp,
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
    Walk,
    alpha_eq,
    arrow,
    decompose,
    foralls,
    is_internal_name,
    names,
    rename,
    t_int,
    trampoline,
)
from .systemf import TypeMismatch, f_let, f_tyabs_many, f_typecheck

def ground_derivation(
    delta: KindEnv, gamma: TypeEnv, result: InferResult
) -> Derivation:
    """Materialise the typing derivation of a checked program.

    Residual flexible variables are grounded to Int (closed elaboration:
    the core has no flexible variables).  Grounding and resolution are
    one reading of the derivation as written: the residuals join a copy
    of the store's images, solved to Int, every image is resolved once,
    and one memo serves every type of the tree.  Every node the reading
    builds comes from the reader's one table, so equal grounded types
    are one object: the instances of one scheme at one type share it,
    and the checks downstream compare them by identity first.  The
    finished tree is replayed through the declarative rules as a
    self-check.
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
) -> tuple[Term, Type]:
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


def to_systemf(d: Derivation) -> Term:
    """Elaborate a valid derivation into the explicitly typed core."""
    return _to_systemf_leaf(d) or trampoline(_to_systemf(d))


def _to_systemf_leaf(d: Derivation) -> Optional[Term]:
    if isinstance(d, DFreeze):
        return Freeze(d.name)
    if isinstance(d, DVar):
        result: Term = Freeze(d.name)
        for image in d.inst:
            result = FTyApp(result, image)
        return result
    if isinstance(d, DLit):
        return Lit(d.value)
    return None


def _to_systemf(d: Derivation) -> Walk:
    if isinstance(d, (DLam, DLamAnn)):
        body = _to_systemf_leaf(d.body) or (yield _to_systemf(d.body))
        return LamAnn(d.var, d.arg_ty if isinstance(d, DLam) else d.ann, body)
    if isinstance(d, DApp):
        fn = _to_systemf_leaf(d.fn) or (yield _to_systemf(d.fn))
        return App(fn, _to_systemf_leaf(d.arg) or (yield _to_systemf(d.arg)))
    if not isinstance(d, (DLet, DLetAnn)):
        raise TypeError(f"not a derivation: {d!r}")
    bound = _to_systemf_leaf(d.bound) or (yield _to_systemf(d.bound))
    body = _to_systemf_leaf(d.body) or (yield _to_systemf(d.body))
    if isinstance(d, DLet):
        return f_let(d.var, d.var_ty, f_tyabs_many(d.gen_prefix, bound), body)
    return f_let(d.var, d.ann, f_tyabs_many(d.split_prefix, bound), body)


def from_systemf(
    delta: KindEnv,
    gamma: TypeEnv,
    t: Term,
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
    term_names, type_names = names(t, *(ty for _, ty in gamma))
    binders = display_term_names(set(term_names))
    letters = display_type_names({*type_names, *delta})

    def go(env: Scope, x: Term) -> Walk:
        """The translation of `x`, its F type by f_typecheck's rules, and
        whether `x` is an F value, read off the flags of its children.
        Variables, literals, lambdas and applications other than value
        redexes translate to themselves."""
        if isinstance(x, Freeze):
            return x, env.lookup(x.name), True
        if isinstance(x, Lit):
            return x, x.type, True
        if isinstance(x, LamAnn):
            body, body_ty, _ = yield go(env.push(x.var, x.ann), x.body)
            env.pop(x.var)
            return LamAnn(x.var, x.ann, body), arrow(x.ann, body_ty), True
        if isinstance(x, App) and isinstance(x.fn, LamAnn):
            lam = x.fn
            body, body_ty, body_value = yield go(env.push(lam.var, lam.ann), lam.body)
            env.pop(lam.var)
            arg, _, arg_value = yield go(env, x.arg)
            if body_value and arg_value:
                return LetAnn(lam.var, lam.ann, arg, body), body_ty, True
            return App(LamAnn(lam.var, lam.ann, body), arg), body_ty, False
        if isinstance(x, App):
            fn, fn_ty, _ = yield go(env, x.fn)
            arg, _, _ = yield go(env, x.arg)
            return App(fn, arg), fn_ty.args[1], False
        if isinstance(x, FTyAbs):
            var = next(binders)
            translated, body_ty, _ = yield go(env, x.body)
            # The body type's own quantifier prefix is about to be peeled
            # into scope over the bound term, where translated inner
            # abstractions restate the same binders; give the annotation
            # copy fresh names so the scopes stay disjoint.
            ann = Forall(x.var, _freshen_prefix(body_ty, letters))
            encoded = LetAnn(var, ann, Inst(translated), Freeze(var))
            return encoded, Forall(x.var, body_ty), True
        if isinstance(x, FTyApp):
            var = next(binders)
            translated, fn_ty, fn_value = yield go(env, x.fn)
            result_ty = substitute({fn_ty.var: x.arg}, fn_ty.body)
            ann = _freshen_prefix(result_ty, letters)
            bound = translated if naive_tyapp else Inst(translated)
            is_inst = fn_value and isinstance(x.fn, (Freeze, Lit, FTyApp))
            return LetAnn(var, ann, bound, Freeze(var)), result_ty, is_inst
        raise TypeError(f"not an F term: {x!r}")

    f_typecheck(delta, gamma, t)  # precondition: every type below exists
    return trampoline(go(Scope(gamma), t))[0]


def readable_fterm(t: Term) -> Term:
    """Rename the internal names of an elaborated term for display.

    Internal type names become a, b, ... and internal term names x, y,
    ..., each in order of first occurrence and none of them a name of
    `t`.  The renaming is one to one onto fresh names, so the term means
    and typechecks the same.
    """
    term_names, type_names = names(t)
    term_map = _readable_names(term_names, display_term_names)
    type_map = _readable_names(type_names, display_type_names)
    if not term_map and not type_map:
        return t
    return rename(t, type_map, term_map)


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
