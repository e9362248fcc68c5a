"""Cross-cutting invariants of the inference engine.

The result contract: the returned substitution transforms the input
flexible environment into the returned one, its domain is exactly the
input environment, and the result type is well-kinded in the output.
"""

import random

import pytest

from freezeml.declcheck import replay
from freezeml.infer import CannotUnify, InferError, infer, make_supply
from freezeml.parser import parse_term, parse_type
from freezeml.prelude import build_prelude
from freezeml.statics import StaticsError, env_wf, kind_of, wellscoped
from freezeml.syntax import (
    Kind,
    KindEnv,
    TVar,
    TypeEnv,
    arrow,
    desugar,
    list_of,
    t_int,
)
from freezeml.unify import StructureMismatch, UnifyError, unify

from generators import kinding_env, random_surface_term
from subst_oracles import Subst, is_identity, is_monotype, subst_wf

PRELUDE = build_prelude()
EMPTY = KindEnv()


def ty(src: str):
    return parse_type(src)


class TestInferResultContract:
    def test_under_nonempty_flexible_env(self):
        rng = random.Random(424)
        delta = KindEnv(("r0",))
        checked = 0
        for _ in range(600):
            theta = {"u0": Kind.MONO, "u1": Kind.MONO, "w0": Kind.POLY}
            gamma = PRELUDE.extend("g", arrow(TVar("u0"), TVar("u1"))).extend(
                "h", arrow(TVar("r0"), TVar("u0"))
            )
            env_wf(kinding_env(delta, theta), gamma)
            term = desugar(
                random_surface_term(rng, ("g", "h"), rng.randrange(0, 5))
            )
            try:
                wellscoped(delta, term)
                supply = make_supply(delta, theta, gamma, term)
                result = infer(delta, theta, gamma, term, supply)
            except (InferError, StaticsError):
                continue
            checked += 1
            # domain discipline: exactly the input environment
            assert set(result.subst) == set(theta)
            # the substitution is well-formed into the output environment
            assert subst_wf(delta, result.subst, theta, result.env)
            # the result type is well-kinded in the output environment
            kind_of(kinding_env(delta, result.env), result.ty)
            # the substituted environment stays well-formed
            solved_gamma = Subst(result.subst).apply_env(gamma)
            env_wf(kinding_env(delta, result.env), solved_gamma)
            # the derivation replays once the residual variables are
            # grounded, in the environment the substitution produced
            grounding = Subst({name: t_int for name in result.env})
            grounded_gamma = grounding.apply_env(solved_gamma)
            replay(delta, grounded_gamma, result.derivation.map_types(grounding.apply))
        assert checked >= 100, checked

    def test_monomorphic_parameters_resolve_to_monotypes(self):
        # the lambda case reads the parameter type back from the
        # substitution; kinding guarantees it is a monotype
        rng = random.Random(425)
        checked = 0
        for _ in range(400):
            term = desugar(random_surface_term(rng, (), rng.randrange(1, 5)))
            if not term.__class__.__name__ == "Lam":
                continue
            try:
                wellscoped(EMPTY, term)
                supply = make_supply(EMPTY, {}, PRELUDE, term)
                result = infer(EMPTY, {}, PRELUDE, term, supply)
            except (InferError, StaticsError):
                continue
            arg_ty = result.ty.args[0]
            assert is_monotype(arg_ty), (term, result.ty)
            checked += 1
        assert checked >= 15, checked


class TestAnnotatedLetEdges:
    def test_shorter_annotation_than_inferred_polymorphism(self):
        # the annotation drives unification; a quantifier mismatch on a
        # non-guarded-value bound term surfaces as a structure mismatch
        term = desugar(parse_term("let (f : Int -> Int) = ~id in f"))
        with pytest.raises(CannotUnify) as err:
            infer(
                EMPTY,
                {},
                PRELUDE,
                term,
                make_supply(EMPTY, {}, PRELUDE, term),
            )
        assert isinstance(err.value.cause, StructureMismatch)

    def test_annotation_scopes_across_binders(self):
        term = desugar(
            parse_term(
                "let (f : forall a b. a -> b -> a) = \\(x : a). \\(y : b). x in f 1 True"
            )
        )
        wellscoped(EMPTY, term)
        supply = make_supply(EMPTY, {}, PRELUDE, term)
        result = infer(EMPTY, {}, PRELUDE, term, supply)
        assert result.ty == ty("Int")

    def test_annotated_let_on_non_value_requires_exact_type(self):
        ok = desugar(parse_term("let (f : forall a. a -> a) = head ids in ~f"))
        supply = make_supply(EMPTY, {}, PRELUDE, ok)
        result = infer(EMPTY, {}, PRELUDE, ok, supply)
        assert result.ty == ty("forall a. a -> a")

    def test_overly_general_annotation_rejected(self):
        # inc : Int -> Int cannot be given the annotated type a -> a
        term = desugar(
            parse_term("let (f : forall a. a -> a) = \\(x : a). inc x in ~f")
        )
        with pytest.raises(InferError):
            infer(
                EMPTY,
                {},
                PRELUDE,
                term,
                make_supply(EMPTY, {}, PRELUDE, term),
            )


class TestShadowingRejected:
    def test_annotation_cannot_rebind_rigid_over_bound_term(self):
        # conflating the outer and inner binder would let a function that
        # always returns the outer-typed value claim a fully polymorphic
        # type; the disjointness side condition forbids it
        delta = KindEnv(("a",))
        gamma = PRELUDE.extend("y", TVar("a"))
        term = desugar(parse_term("let (f : forall a. a -> a) = \\(x : a). y in ~f"))
        with pytest.raises(StaticsError):
            wellscoped(delta, term)
        with pytest.raises(InferError):
            infer(
                delta,
                {},
                gamma,
                term,
                make_supply(delta, {}, gamma, term),
            )

    def test_nested_annotated_lets_must_rename(self):
        term = desugar(
            parse_term(
                "let (f : forall a. a -> a) = "
                "(let (g : forall a. a -> a) = \\(x : a). x in \\(x : a). g x) "
                "in ~f"
            )
        )
        with pytest.raises(StaticsError):
            wellscoped(EMPTY, term)

    def test_sibling_annotated_lets_fine(self):
        term = desugar(
            parse_term(
                "let (f : forall a. a -> a) = \\(x : a). x in "
                "let (g : forall a. [a]) = [] in (f 1, ~g)"
            )
        )
        wellscoped(EMPTY, term)
        supply = make_supply(EMPTY, {}, PRELUDE, term)
        result = infer(EMPTY, {}, PRELUDE, term, supply)
        assert result.ty == ty("(Int, forall a. [a])")

    def test_f_tyabs_cannot_rebind(self):
        from freezeml.systemf import FLam, FTyAbs, FTypeError, FVar, f_typecheck

        term = FTyAbs("a", FTyAbs("a", FLam("x", TVar("a"), FVar("x"))))
        with pytest.raises(FTypeError):
            f_typecheck(EMPTY, TypeEnv(), term)


class TestUnifyEdges:
    def test_shadowed_quantifiers(self):
        a = ty("forall a. forall a. a -> a")
        b = ty("forall b. forall c. c -> c")
        theta_out, subst = unify(EMPTY, {}, a, b)
        assert is_identity(subst)

    def test_flexible_flexible_mono_poly(self):
        theta = {"m": Kind.MONO, "p": Kind.POLY}
        theta_out, subst = unify(EMPTY, theta, TVar("m"), TVar("p"))
        # solving either orientation demotes the polymorphic side
        remaining = tuple(theta_out)
        assert len(remaining) == 1
        assert theta_out[remaining[0]] is Kind.MONO

    def test_rigid_solution_for_flexible(self):
        delta = KindEnv(("r",))
        theta = {"m": Kind.MONO}
        theta_out, subst = unify(delta, theta, TVar("m"), TVar("r"))
        assert subst["m"] == TVar("r")

    def test_nested_skolem_scoping(self):
        # forall a. [forall b. a -> b] against itself, alpha-varied
        a = ty("forall a. [forall b. a -> b]")
        b = ty("forall c. [forall d. c -> d]")
        theta_out, subst = unify(EMPTY, {}, a, b)
        assert is_identity(subst)

    def test_deep_demotion_chain(self):
        # u:mono against [v], then v against a polytype must fail
        theta = {"u": Kind.MONO, "v": Kind.POLY}
        theta1, s1 = unify(EMPTY, theta, TVar("u"), list_of(TVar("v")))
        assert theta1["v"] is Kind.MONO
        with pytest.raises(UnifyError):
            unify(EMPTY, theta1, TVar("v"), ty("forall a. a -> a"))
