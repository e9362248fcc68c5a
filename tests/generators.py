"""Seeded random generators for types, substitutions, terms, and core terms.

Everything takes an explicit ``random.Random`` so failures reproduce
from the seed printed by the calling test.
"""

from __future__ import annotations

import random
from typing import Optional

from freezeml.subst import substitute
from freezeml.syntax import (
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
    TVar,
    Term,
    Type,
    TypeEnv,
    Var,
    arrow,
    ftv_ordered,
    list_of,
    pair_of,
    t_bool,
    t_int,
)
from freezeml.systemf import (
    FApp,
    FLam,
    FLit,
    FTerm,
    FTyAbs,
    FTyApp,
    FVar,
    is_f_value,
)

from subst_oracles import is_monotype

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def random_type(
    rng: random.Random,
    mono_vars: tuple[str, ...],
    poly_vars: tuple[str, ...],
    depth: int = 3,
    kind: Kind = Kind.POLY,
    allow_forall: bool = True,
    binders: tuple[str, ...] = (),
) -> Type:
    """A well-kinded type over the given variable pools.

    `mono_vars` can appear anywhere; `poly_vars` only where the target
    kind is poly.  Foralls bind fresh variables usable monomorphically,
    or, when `binders` is given, names drawn from it, so that nested
    quantifiers may shadow one another and the pools.
    """
    leaf_options: list = [t_int, t_bool]
    leaf_options.extend(TVar(v) for v in mono_vars)
    if kind is Kind.POLY:
        leaf_options.extend(TVar(v) for v in poly_vars)
    if depth <= 0:
        return rng.choice(leaf_options)
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(leaf_options)
    if kind is Kind.POLY and allow_forall and roll < 0.5:
        fresh = rng.choice(binders) if binders else f"q{rng.randrange(10**6)}"
        body = random_type(
            rng, mono_vars + (fresh,), poly_vars, depth - 1, Kind.POLY, allow_forall,
            binders,
        )
        return Forall(fresh, body)

    def part() -> Type:
        return random_type(rng, mono_vars, poly_vars, depth - 1, kind, allow_forall, binders)

    pick = rng.random()
    if pick < 0.5:
        return arrow(part(), part())
    if pick < 0.75:
        return list_of(part())
    return pair_of(part(), part())


def kinding_env(delta: KindEnv, theta: dict[str, Kind]) -> dict[str, Kind]:
    """Rigid and flexible variables in one environment, for kinding.

    The two must be disjoint, or joining them would conflate two
    variables.
    """
    assert set(delta).isdisjoint(theta), f"rigid and flexible overlap: {delta} {theta}"
    return {**dict.fromkeys(delta, Kind.MONO), **theta}


def random_refined_env(
    rng: random.Random, size: int, prefix: str = "t"
) -> dict[str, Kind]:
    return {f"{prefix}{i}": rng.choice((Kind.MONO, Kind.POLY)) for i in range(size)}


def random_env_and_types(
    rng: random.Random,
) -> tuple[KindEnv, dict[str, Kind], Type, Type]:
    """A well-kinded unification problem with a decent success rate.

    Both types are built by abstracting random binder-free subterms of a
    common target with flexible variables, so they share a unifier more
    often than independent samples would.
    """
    delta = KindEnv(f"r{i}" for i in range(rng.randrange(0, 3)))
    theta = random_refined_env(rng, rng.randrange(1, 5))
    mono = tuple(delta.names()) + tuple(
        n for n, k in theta.items() if k is Kind.MONO
    )
    poly = tuple(n for n, k in theta.items() if k is Kind.POLY)
    if rng.random() < 0.3:
        # Independent pair: mostly exercises failure paths.
        a = random_type(rng, mono, poly, depth=3)
        b = random_type(rng, mono, poly, depth=3)
        return delta, theta, a, b
    target = random_type(rng, tuple(delta.names()), (), depth=3)
    a = abstract_randomly(rng, target, theta, tuple(delta.names()))
    b = abstract_randomly(rng, target, theta, tuple(delta.names()))
    return delta, theta, a, b


def top_level_positions(t: Type, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], Type]]:
    """Subterm positions not under any quantifier."""
    positions = [(path, t)]
    if isinstance(t, Con):
        for i, arg in enumerate(t.args):
            positions.extend(top_level_positions(arg, path + (i,)))
    return positions


def replace_at(t: Type, path: tuple[int, ...], replacement: Type) -> Type:
    if not path:
        return replacement
    assert isinstance(t, Con)
    head, rest = path[0], path[1:]
    new_args = tuple(
        replace_at(arg, rest, replacement) if i == head else arg
        for i, arg in enumerate(t.args)
    )
    return Con(t.con, new_args)


def abstract_randomly(
    rng: random.Random,
    target: Type,
    theta: dict[str, Kind],
    delta_names: tuple[str, ...],
) -> Type:
    """Replace a few binder-free subterms of `target` with flexible vars.

    Replacements are kind-respecting (mono slots only absorb monotypes)
    and consistent: one variable per distinct replaced subterm.
    """
    result = target
    used: dict[str, Type] = {}
    for _ in range(rng.randrange(0, 3)):
        positions = top_level_positions(result)
        path, sub = rng.choice(positions)
        candidates = [
            n
            for n, k in theta.items()
            if (k is Kind.POLY or is_monotype(sub))
            and (n not in used or used[n] == sub)
        ]
        if not candidates:
            continue
        var = rng.choice(candidates)
        used[var] = sub
        result = replace_at(result, path, TVar(var))
    return result


def random_ground_type(rng: random.Random, depth: int = 2, kind: Kind = Kind.POLY) -> Type:
    return random_type(rng, (), (), depth=depth, kind=kind)


def random_subst_problem(
    rng: random.Random,
) -> tuple[KindEnv, dict[str, Kind], dict[str, Kind], dict[str, Type], Type, Type]:
    """(delta, theta, theta_out, theta_subst, A, B) with theta(A) == theta(B).

    theta maps the base part of theta into the image part (on which it
    is the identity), so replacing images of base variables inside
    theta(A) by those variables leaves the instance unchanged.
    """
    delta = KindEnv(f"r{i}" for i in range(rng.randrange(0, 2)))
    image_env = random_refined_env(rng, rng.randrange(1, 4), prefix="i")
    base_env = random_refined_env(rng, rng.randrange(1, 4), prefix="b")
    image_mono = tuple(delta.names()) + tuple(
        n for n, k in image_env.items() if k is Kind.MONO
    )
    image_poly = tuple(n for n, k in image_env.items() if k is Kind.POLY)
    theta_subst: dict[str, Type] = {}
    for name, kind in base_env.items():
        theta_subst[name] = random_type(rng, image_mono, image_poly, depth=2, kind=kind)
    for name in image_env:
        theta_subst[name] = TVar(name)
    # base and image names carry different prefixes, so they never clash
    theta = {**base_env, **image_env}

    base_mono = tuple(delta.names()) + tuple(n for n, k in base_env.items() if k is Kind.MONO)
    base_poly = tuple(n for n, k in base_env.items() if k is Kind.POLY)
    base_names = set(base_env)
    a = random_type(
        rng, base_mono + image_mono[len(delta.names()):], base_poly + image_poly, depth=3
    )
    for _ in range(6):
        if base_names & set(ftv_ordered(a)):
            break
        a = random_type(
            rng,
            base_mono + image_mono[len(delta.names()):],
            base_poly + image_poly,
            depth=3,
        )
    instance = substitute(theta_subst, a)
    b = instance
    for name in base_env:
        image = theta_subst[name]
        positions = [
            (path, sub)
            for path, sub in top_level_positions(b)
            if sub == image
        ]
        for path, _ in positions:
            if rng.random() < 0.6:
                b = replace_at(b, path, TVar(name))
    return delta, theta, image_env, theta_subst, a, b


# ---------------------------------------------------------------------------
# Surface terms
# ---------------------------------------------------------------------------

ANNOTATION_POOL = (
    "forall a. a -> a",
    "Int",
    "Int -> Int",
    "[forall a. a -> a]",
    "(forall a. a -> a) -> (Int, Bool)",
    "forall a b. a -> b -> a",
    "forall a. a",
    "[Int]",
)


def random_surface_term(
    rng: random.Random,
    vars_in_scope: tuple[str, ...],
    size: int,
    annotations: Optional[tuple[Type, ...]] = None,
) -> Term:
    """A random surface term (with sugar) over the prelude names."""
    if annotations is None:
        from freezeml.parser import parse_type

        annotations = tuple(parse_type(src) for src in ANNOTATION_POOL)
    prelude_names = (
        "head", "tail", "[]", "::", "single", "++", "length", "id", "ids",
        "inc", "choose", "poly", "auto", "auto'", "map", "app", "revapp",
        "pair",
    )

    def var_leaf() -> Term:
        pool = prelude_names + vars_in_scope + vars_in_scope
        name = rng.choice(pool)
        return Freeze(name) if rng.random() < 0.3 else Var(name)

    def go(scope: tuple[str, ...], budget: int) -> Term:
        if budget <= 0:
            roll = rng.random()
            if roll < 0.6:
                pool = prelude_names + scope + scope
                name = rng.choice(pool)
                return Freeze(name) if rng.random() < 0.3 else Var(name)
            if roll < 0.8:
                return Lit(rng.randrange(0, 100))
            return Lit(rng.random() < 0.5)
        roll = rng.random()
        if roll < 0.25:
            return App(go(scope, budget - 1), go(scope, budget - 1))
        if roll < 0.45:
            var = f"x{rng.randrange(1000)}"
            if rng.random() < 0.35:
                ann = rng.choice(annotations)
                return LamAnn(var, ann, go(scope + (var,), budget - 1))
            return Lam(var, go(scope + (var,), budget - 1))
        if roll < 0.65:
            var = f"x{rng.randrange(1000)}"
            bound = go(scope, budget - 1)
            body = go(scope + (var,), budget - 1)
            if rng.random() < 0.2:
                return LetAnn(var, rng.choice(annotations), bound, body)
            return Let(var, bound, body)
        if roll < 0.75:
            return Gen(go(scope, budget - 1))
        if roll < 0.85:
            return Inst(go(scope, budget - 1))
        return go(scope, 0)

    return go(vars_in_scope, size)


def random_ml_term(
    rng: random.Random, vars_in_scope: tuple[str, ...], size: int
) -> Term:
    """Terms in the ML fragment: no freeze, no annotations, no sugar."""
    ml_prelude = (
        "head", "tail", "[]", "::", "single", "++", "length", "id", "inc",
        "choose", "map", "app", "revapp", "pair",
    )

    def go(scope: tuple[str, ...], budget: int) -> Term:
        if budget <= 0:
            if rng.random() < 0.75:
                pool = ml_prelude + scope + scope + scope
                return Var(rng.choice(pool))
            return Lit(rng.randrange(0, 100))
        roll = rng.random()
        if roll < 0.3:
            return App(go(scope, budget - 1), go(scope, budget - 1))
        if roll < 0.6:
            var = f"x{rng.randrange(1000)}"
            return Lam(var, go(scope + (var,), budget - 1))
        if roll < 0.85:
            var = f"x{rng.randrange(1000)}"
            return Let(var, go(scope, budget - 1), go(scope + (var,), budget - 1))
        return go(scope, 0)

    return go(vars_in_scope, size)


# ---------------------------------------------------------------------------
# Core (System F) terms, by construction well-typed
# ---------------------------------------------------------------------------

class GiveUp(Exception):
    pass


def random_f_type(
    rng: random.Random, delta_names: tuple[str, ...], depth: int = 2
) -> Type:
    """Inhabitable-by-construction types: Int, Bool, arrows, quantifiers."""
    if depth <= 0:
        options: list[Type] = [t_int, t_bool]
        options.extend(TVar(v) for v in delta_names)
        return rng.choice(options)
    roll = rng.random()
    if roll < 0.3:
        options = [t_int, t_bool]
        options.extend(TVar(v) for v in delta_names)
        return rng.choice(options)
    if roll < 0.75:
        return arrow(
            random_f_type(rng, delta_names, depth - 1),
            random_f_type(rng, delta_names, depth - 1),
        )
    fresh = f"q{rng.randrange(10**6)}"
    body = random_f_type(rng, delta_names + (fresh,), depth - 1)
    if not isinstance(body, (Con, Forall)) or body == TVar(fresh):
        body = arrow(TVar(fresh), TVar(fresh))
    return Forall(fresh, body)


def random_f_term(
    rng: random.Random,
    delta: KindEnv,
    gamma: TypeEnv,
    depth: int = 6,
) -> FTerm:
    """A well-typed core term of bounded depth, or GiveUp."""
    from freezeml.syntax import alpha_eq

    def vars_of_type(env: TypeEnv, ty: Type) -> list[str]:
        return [name for name, bound in env if alpha_eq(bound, ty)]

    def inhabit(env: TypeEnv, dlt: KindEnv, ty: Type, budget: int, value_only: bool) -> FTerm:
        choices = []
        matching = vars_of_type(env, ty)
        if matching:
            choices.append("var")
        if ty == t_int or ty == t_bool:
            choices.append("lit")
        if isinstance(ty, Con) and ty.con.name == "->":
            choices.append("lam")
        if isinstance(ty, Forall):
            choices.append("tyabs")
        if budget > 0:
            # under a type abstraction, only a value redex is an application
            choices += ("let" if value_only else "app", "tyapp")
        if not choices:
            raise GiveUp
        rng.shuffle(choices)
        for choice in choices:
            try:
                if choice == "var":
                    return FVar(rng.choice(matching))
                if choice == "lit":
                    if ty == t_int:
                        return FLit(rng.randrange(0, 100))
                    return FLit(rng.random() < 0.5)
                if choice == "lam":
                    var = f"x{rng.randrange(10**6)}"
                    body = inhabit(
                        env.extend(var, ty.args[0]), dlt, ty.args[1], budget - 1, False
                    )
                    return FLam(var, ty.args[0], body)
                if choice == "tyabs":
                    body = inhabit(env, dlt.extend(ty.var), ty.body, budget - 1, True)
                    if not is_f_value(body):
                        raise GiveUp
                    return FTyAbs(ty.var, body)
                if choice == "tyapp":
                    # Build an operand at forall q. ty[with some subterm
                    # abstracted], then apply it back.
                    positions = [
                        (path, sub)
                        for path, sub in top_level_positions(ty)
                        if not isinstance(sub, TVar) or sub.name in dlt
                    ]
                    path, sub = rng.choice(positions)
                    fresh = f"q{rng.randrange(10**6)}"
                    pattern = ty
                    for p, s in top_level_positions(ty):
                        if s == sub and rng.random() < 0.7:
                            pattern = replace_at(pattern, p, TVar(fresh))
                    pattern = replace_at(pattern, path, TVar(fresh))
                    operand = inhabit(
                        env, dlt, Forall(fresh, pattern), budget - 1, value_only
                    )
                    return FTyApp(operand, sub)
                if choice == "let":
                    # a value redex, the image of a surface `let`
                    arg_ty = random_f_type(rng, tuple(dlt.names()), depth=1)
                    var = f"x{rng.randrange(10**6)}"
                    body = inhabit(env.extend(var, arg_ty), dlt, ty, budget - 1, True)
                    arg = inhabit(env, dlt, arg_ty, budget - 1, True)
                    return FApp(FLam(var, arg_ty, body), arg)
                if choice == "app":
                    arg_ty = random_f_type(rng, tuple(dlt.names()), depth=1)
                    fn = inhabit(env, dlt, arrow(arg_ty, ty), budget - 1, False)
                    arg = inhabit(env, dlt, arg_ty, budget - 1, False)
                    return FApp(fn, arg)
            except GiveUp:
                continue
        raise GiveUp

    target = random_f_type(rng, tuple(delta.names()), depth=rng.randrange(1, 3))
    return inhabit(gamma, delta, target, depth, False)


def random_shared_f_term(rng: random.Random, gamma: TypeEnv, depth: int = 5) -> FTerm:
    """A well-typed core term built only of the nodes System F shares with
    the surface language: variables, literals, annotated lambdas, and
    applications whose function is no lambda.  There the translation
    into the surface language is the identity.  Raises GiveUp."""
    from freezeml.syntax import alpha_eq

    def inhabit(env: TypeEnv, ty: Type, budget: int, applied: bool) -> FTerm:
        choices = []
        matching = [name for name, bound in env if alpha_eq(bound, ty)]
        if matching:
            choices.append("var")
        if ty == t_int or ty == t_bool:
            choices.append("lit")
        if isinstance(ty, Con) and ty.con.name == "->" and not applied:
            choices.append("lam")
        if budget > 0:
            choices.append("app")
        rng.shuffle(choices)
        for choice in choices:
            try:
                if choice == "var":
                    return FVar(rng.choice(matching))
                if choice == "lit":
                    return FLit(rng.randrange(0, 100) if ty == t_int else rng.random() < 0.5)
                if choice == "lam":
                    var = f"x{rng.randrange(10**6)}"
                    body = inhabit(env.extend(var, ty.args[0]), ty.args[1], budget - 1, False)
                    return FLam(var, ty.args[0], body)
                # mostly the domain of a function in scope that returns `ty`
                domains = [
                    bound.args[0]
                    for _, bound in env
                    if isinstance(bound, Con) and bound.con.name == "->"
                    and alpha_eq(bound.args[1], ty)
                ]
                if domains and rng.random() < 0.7:
                    arg_ty = rng.choice(domains)
                else:
                    arg_ty = random_f_type(rng, (), depth=1)
                fn = inhabit(env, arrow(arg_ty, ty), budget - 1, True)
                return FApp(fn, inhabit(env, arg_ty, budget - 1, False))
            except GiveUp:
                continue
        raise GiveUp

    target = random_f_type(rng, (), depth=rng.randrange(1, 3))
    return inhabit(gamma, target, depth, False)
