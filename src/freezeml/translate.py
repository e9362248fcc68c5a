"""Type-preserving translations between the surface language and System F.

Outbound, a recorded inference derivation drives elaboration: variable
occurrences become type applications of their recorded instantiations,
and let-bindings wrap their bound term in the recorded abstraction
prefix.  Inbound, type abstraction and application are encoded with
annotated lets around an instantiating let (the ``@`` expansion); the
naive encoding without that extra step is kept behind a flag as a
negative example, since a frozen variable cannot be implicitly
instantiated to the annotated type.
"""

from __future__ import annotations

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
from .subst import Subst
from .syntax import (
    App,
    Forall,
    Freeze,
    KindEnv,
    LamAnn,
    Let,
    LetAnn,
    Lit,
    NameSupply,
    Term,
    Type,
    TypeEnv,
    Var,
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
    f_let,
    f_tyabs_many,
    f_typecheck,
)

__all__ = [
    "Derivation",
    "ground_derivation",
    "rebuild_derivation",
    "to_systemf",
    "from_systemf",
]


def ground_derivation(
    delta: KindEnv, gamma: TypeEnv, result: InferResult
) -> Derivation:
    """Materialise the typing derivation of a checked program.

    Residual flexible variables are grounded to Int (closed elaboration:
    the core has no flexible variables).  The finished tree is replayed
    through the declarative rules as a self-check.
    """
    grounding = Subst({name: t_int for name, _ in result.env})
    derivation = result.derivation.map_types(grounding.apply)
    replay(delta, gamma, derivation)
    return derivation


def rebuild_derivation(delta: KindEnv, gamma: TypeEnv, m: Term) -> Derivation:
    """Check `m` and materialise its grounded, replayed derivation."""
    return ground_derivation(delta, gamma, check_program(delta, gamma, m))


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

    Type abstraction becomes an annotated, generalising let around an
    instantiating let; type application becomes an annotated let at the
    substituted type.  With `naive_tyapp` the instantiating step of the
    type-application case is skipped, which breaks typeability whenever
    the operand is a frozen variable or application (kept as a negative
    example on purpose).
    """
    supply = NameSupply(_term_var_names(t) | set(gamma.names()))
    namer = _annotation_namer(delta, gamma, t)

    def wrap_inst(term: Term) -> Term:
        var = supply.fresh("v")
        return Let(var, term, Var(var))

    def go(dlt: KindEnv, env: TypeEnv, x: FTerm) -> Term:
        if isinstance(x, FVar):
            return Freeze(x.name)
        if isinstance(x, FLit):
            return Lit(x.value)
        if isinstance(x, FLam):
            body = go(dlt, env.extend(x.var, x.ann), x.body)
            return LamAnn(x.var, x.ann, body)
        if isinstance(x, FApp):
            return App(go(dlt, env, x.fn), go(dlt, env, x.arg))
        if isinstance(x, FTyAbs):
            inner_delta = dlt.extend(x.var)
            body_ty = f_typecheck(inner_delta, env, x.body)
            translated = go(inner_delta, env, x.body)
            var = supply.fresh("v")
            # The body type's own quantifier prefix is about to be peeled
            # into scope over the bound term, where translated inner
            # abstractions restate the same binders; give the annotation
            # copy fresh names so the scopes stay disjoint.
            ann = Forall(x.var, _freshen_prefix(body_ty, namer))
            return LetAnn(var, ann, wrap_inst(translated), Freeze(var))
        if isinstance(x, FTyApp):
            fn_ty = f_typecheck(dlt, env, x.fn)
            assert isinstance(fn_ty, Forall), "precondition: operand typechecks"
            result_ty = Subst({fn_ty.var: x.arg}).apply(fn_ty.body)
            translated = go(dlt, env, x.fn)
            var = supply.fresh("v")
            ann = _freshen_prefix(result_ty, namer)
            if naive_tyapp:
                return LetAnn(var, ann, translated, Freeze(var))
            return LetAnn(var, ann, wrap_inst(translated), Freeze(var))
        raise TypeError(f"not an F term: {x!r}")

    f_typecheck(delta, gamma, t)  # precondition
    return go(delta, gamma, t)


def _annotation_namer(delta: KindEnv, gamma: TypeEnv, t: FTerm):
    """Fresh, user-writable type-variable names for annotation prefixes."""
    from .syntax import all_type_names

    taken = set(delta.names()) | gamma.type_names()

    def collect(x: FTerm) -> None:
        if isinstance(x, FLam):
            taken.update(all_type_names(x.ann))
            collect(x.body)
        elif isinstance(x, FApp):
            collect(x.fn)
            collect(x.arg)
        elif isinstance(x, FTyAbs):
            taken.add(x.var)
            collect(x.body)
        elif isinstance(x, FTyApp):
            taken.update(all_type_names(x.arg))
            collect(x.fn)

    collect(t)
    counter = [0]

    def fresh() -> str:
        letters = "abcdefghijklmnopqrstuvwxyz"
        while True:
            i = counter[0]
            counter[0] += 1
            name = letters[i % 26] if i < 26 else f"{letters[i % 26]}{i // 26}"
            if name not in taken:
                taken.add(name)
                return name

    return fresh


def _freshen_prefix(ann: Type, namer) -> Type:
    from .syntax import decompose, foralls, TVar

    prefix, body = decompose(ann)
    if not prefix:
        return ann
    renaming = {}
    new_names = []
    for name in prefix:
        fresh = namer()
        renaming[name] = TVar(fresh)
        new_names.append(fresh)
    return foralls(new_names, Subst(renaming).apply(body))


def _term_var_names(t: FTerm) -> set[str]:
    names: set[str] = set()

    def walk(x: FTerm) -> None:
        if isinstance(x, FVar):
            names.add(x.name)
        elif isinstance(x, FLit):
            pass
        elif isinstance(x, FLam):
            names.add(x.var)
            walk(x.body)
        elif isinstance(x, FApp):
            walk(x.fn)
            walk(x.arg)
        elif isinstance(x, FTyAbs):
            walk(x.body)
        elif isinstance(x, FTyApp):
            walk(x.fn)

    walk(t)
    return names
