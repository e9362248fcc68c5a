import random

import pytest

from freezeml.parser import parse_term, parse_type
from freezeml.statics import (
    PolyVarInEnv,
    StaticsError,
    UnboundTyVar,
    env_wf,
    kind_of,
    wellscoped,
)
from freezeml.subst import substitute
from freezeml.syntax import (
    Kind,
    KindEnv,
    TVar,
    TypeEnv,
    desugar,
    is_monotype,
    ftv_ordered,
)

from generators import kinding_env, random_subst_problem, random_type
from subst_oracles import kind_le, subst_wf


def ty(src: str):
    return parse_type(src)


EMPTY = KindEnv()


class TestKindOf:
    def test_int_is_mono(self):
        assert kind_of(EMPTY, ty("Int")) is Kind.MONO

    def test_forall_is_poly(self):
        assert kind_of(EMPTY, ty("forall a. a -> a")) is Kind.POLY

    def test_guarded_polymorphism_is_poly(self):
        env = {"b": Kind.MONO}
        assert kind_of(env, ty("[forall a. a -> a]")) is Kind.POLY

    def test_fixed_env_vars_are_mono(self):
        assert kind_of(KindEnv(("a",)), ty("a -> a")) is Kind.MONO

    def test_refined_env_poly_var(self):
        env = {"a": Kind.POLY}
        assert kind_of(env, TVar("a")) is Kind.POLY

    def test_unbound(self):
        with pytest.raises(UnboundTyVar):
            kind_of(EMPTY, TVar("a"))

    def test_forall_binds_monomorphically(self):
        # the bound variable is usable, at kind mono
        assert kind_of(EMPTY, ty("forall a. [a]")) is Kind.POLY

    def test_upcast_admissible(self):
        rng = random.Random(17)
        env = {"m": Kind.MONO, "p": Kind.POLY}
        for _ in range(200):
            t = random_type(rng, ("m",), ("p",), depth=3)
            k = kind_of(env, t)
            if k is Kind.MONO:
                assert kind_le(k, Kind.POLY)

    def test_monotype_coherence(self):
        # kind mono iff no quantifier anywhere and all free vars mono-kinded
        rng = random.Random(19)
        env = {"m": Kind.MONO, "p": Kind.POLY}
        for _ in range(300):
            t = random_type(rng, ("m",), ("p",), depth=3)
            k = kind_of(env, t)
            expected_mono = is_monotype(t) and all(
                env.get(v) is Kind.MONO for v in ftv_ordered(t)
            )
            assert (k is Kind.MONO) == expected_mono


class TestEnvWf:
    def test_mono_var_ok(self):
        theta = {"a": Kind.MONO}
        env_wf(theta, TypeEnv((("x", ty("a -> a")),)))

    def test_poly_var_rejected(self):
        theta = {"a": Kind.POLY}
        with pytest.raises(PolyVarInEnv):
            env_wf(theta, TypeEnv((("x", TVar("a")),)))

    def test_empty_ok(self):
        env_wf({}, TypeEnv())

    def test_quantified_entry_ok(self):
        env_wf({}, TypeEnv((("id", ty("forall a. a -> a")),)))


class TestWellscoped:
    def test_unbound_annotation_variable(self):
        term = desugar(parse_term("\\(x : a). x"))
        with pytest.raises(UnboundTyVar):
            wellscoped(EMPTY, term)

    def test_annotation_bound_by_let_annotation(self):
        term = desugar(parse_term("let (f : forall a. a -> a) = \\(x : a). x in f"))
        wellscoped(EMPTY, term)

    def test_split_gives_no_scope_for_non_gval(self):
        # the frozen bound term is not a guarded value, so the annotation's
        # quantifier does not scope over it; the plain form stays fine
        ok = desugar(parse_term("let (f : forall a. a -> a) = ~id in f"))
        wellscoped(EMPTY, ok)
        bad = desugar(
            parse_term("let (f : forall a. a -> a) = choose (\\(x : a). x) ~id in f")
        )
        with pytest.raises(UnboundTyVar):
            wellscoped(EMPTY, bad)

    def test_lambda_annotation_does_not_extend_scope(self):
        term = desugar(parse_term("\\(x : forall a. a -> a). \\(y : a). y"))
        with pytest.raises(UnboundTyVar):
            wellscoped(EMPTY, term)

    def test_rigid_vars_visible(self):
        term = desugar(parse_term("\\(x : a). x"))
        wellscoped(KindEnv(("a",)), term)


class TestStability:
    def test_kinding_stable_under_substitution(self):
        # a well-formed substitution preserves the kinding judgement
        rng = random.Random(29)
        for _ in range(300):
            delta, theta, theta_out, subst, a, _ = random_subst_problem(rng)
            assert subst_wf(delta, subst, theta, theta_out)
            env_in = kinding_env(delta, theta)
            env_out = kinding_env(delta, theta_out)
            k = kind_of(env_in, a)
            image_kind = kind_of(env_out, substitute(subst, a))
            assert kind_le(image_kind, k)
