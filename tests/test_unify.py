import random

import pytest

from freezeml.declcheck import match_instance
from freezeml.parser import parse_type
from freezeml.statics import kind_of
from freezeml.subst import Subst
from freezeml.syntax import (
    Kind,
    KindEnv,
    RefinedKindEnv,
    TVar,
    alpha_eq,
    arrow,
    foralls,
    ftv_ordered,
    list_of,
    t_int,
)
from freezeml.unify import (
    ConMismatch,
    OccursOrKind,
    RigidMismatch,
    SkolemEscape,
    StructureMismatch,
    UnifyError,
    unify,
)

from generators import random_env_and_types, random_subst_problem
from subst_oracles import is_identity, subst_wf


def ty(src: str):
    return parse_type(src)


EMPTY = KindEnv()
NO_FLEX = RefinedKindEnv()


def flex(*entries):
    return RefinedKindEnv(entries)


class TestUnifyCases:
    def test_identical_ground(self):
        theta_out, subst = unify(EMPTY, NO_FLEX, t_int, t_int)
        assert theta_out == NO_FLEX
        assert is_identity(subst)

    def test_flexible_poly_takes_polytype(self):
        theta = flex(("a", Kind.POLY))
        theta_out, subst = unify(EMPTY, theta, TVar("a"), ty("forall b. b -> b"))
        assert theta_out == NO_FLEX
        assert alpha_eq(subst.lookup("a"), ty("forall b. b -> b"))

    def test_flexible_mono_rejects_polytype(self):
        theta = flex(("a", Kind.MONO))
        with pytest.raises(OccursOrKind):
            unify(EMPTY, theta, TVar("a"), ty("forall b. b -> b"))

    def test_occurs_check_via_kinding(self):
        theta = flex(("a", Kind.POLY))
        with pytest.raises(OccursOrKind):
            unify(EMPTY, theta, TVar("a"), list_of(TVar("a")))

    def test_skolem_escape(self):
        theta = flex(("a", Kind.POLY))
        with pytest.raises(SkolemEscape):
            unify(
                EMPTY,
                theta,
                foralls(("b",), arrow(TVar("a"), TVar("b"))),
                ty("forall c. c -> c"),
            )

    def test_constructor_mismatch(self):
        with pytest.raises(ConMismatch):
            unify(EMPTY, NO_FLEX, t_int, ty("Bool"))

    def test_rigid_mismatch(self):
        delta = KindEnv(("a", "b"))
        with pytest.raises(RigidMismatch):
            unify(delta, NO_FLEX, TVar("a"), TVar("b"))

    def test_forall_vs_con_without_flexible(self):
        with pytest.raises(StructureMismatch):
            unify(EMPTY, NO_FLEX, ty("forall a. a -> a"), ty("Int -> Int"))

    def test_demotion_propagates(self):
        # solving a mono variable against a type with poly flexibles
        # demotes those flexibles
        theta = flex(("a", Kind.MONO), ("b", Kind.POLY))
        theta_out, subst = unify(EMPTY, theta, TVar("a"), arrow(TVar("b"), t_int))
        assert theta_out.lookup("b") is Kind.MONO
        # a demoted variable can no longer take a polytype
        with pytest.raises(OccursOrKind):
            unify(EMPTY, theta_out, TVar("b"), ty("forall c. c -> c"))

    def test_quantifier_alpha(self):
        theta_out, subst = unify(
            EMPTY, NO_FLEX, ty("forall a. a -> a"), ty("forall b. b -> b")
        )
        assert is_identity(subst)

    def test_quantifier_order_rigid(self):
        with pytest.raises(UnifyError):
            unify(
                EMPTY,
                NO_FLEX,
                ty("forall a b. a -> b -> (a, b)"),
                ty("forall b a. a -> b -> (a, b)"),
            )


def check_sound(delta, theta, a, b):
    """Returns True when unification succeeded and its contract held."""
    try:
        theta_out, subst = unify(delta, theta, a, b)
    except UnifyError:
        return False
    assert alpha_eq(subst.apply(a), subst.apply(b)), (a, b, subst)
    assert subst_wf(delta, subst, theta, theta_out), (a, b, subst, theta_out)
    return True


class TestSoundness:
    def test_generated_instances(self):
        rng = random.Random(2024)
        successes = 0
        for _ in range(1200):
            delta, theta, a, b = random_env_and_types(rng)
            if check_sound(delta, theta, a, b):
                successes += 1
        # the generator is tuned to hit plenty of successful unifications
        assert successes >= 300, successes

    def test_symmetry_up_to_success(self):
        rng = random.Random(77)
        for _ in range(500):
            delta, theta, a, b = random_env_and_types(rng)
            lhs = _succeeds(delta, theta, a, b)
            rhs = _succeeds(delta, theta, b, a)
            assert lhs == rhs


def _succeeds(delta, theta, a, b):
    try:
        unify(delta, theta, a, b)
        return True
    except UnifyError:
        return False


def factor_through(delta, theta_mid, subst_general, subst_specific):
    """One-way matching of one substitution's images against another's.

    Returns a substitution over theta_mid with
    ``factor . subst_general == subst_specific`` pointwise, or None.
    """
    domain = subst_general.domain()
    if not domain:
        return Subst({})
    pattern = None
    target = None
    for name in reversed(domain):
        p = subst_general.lookup(name)
        t = subst_specific.lookup(name)
        pattern = p if pattern is None else arrow(p, pattern)
        target = t if target is None else arrow(t, target)
    return match_instance(delta, theta_mid, pattern, target)


class TestCompleteness:
    def test_constructed_unifiable_pairs(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(1200):
            delta, theta, theta_out, subst, a, b = random_subst_problem(rng)
            assert alpha_eq(subst.apply(a), subst.apply(b))
            theta_mid, mgu = unify(delta, theta, a, b)
            # the most general unifier factors the constructed one
            factor = factor_through(delta, theta_mid, mgu, subst)
            assert factor is not None, (a, b, mgu, subst)
            for name in subst.domain():
                assert alpha_eq(
                    factor.apply(mgu.lookup(name)), subst.lookup(name)
                )
            checked += 1
        assert checked >= 1000

    def test_unifiers_are_surjective(self):
        rng = random.Random(555)
        for _ in range(400):
            delta, theta, a, b = random_env_and_types(rng)
            try:
                theta_out, subst = unify(delta, theta, a, b)
            except UnifyError:
                continue
            assert set(theta_out.names()) <= set(theta.names())
            image_vars = set(subst.ftv())
            for name in theta_out.names():
                assert name in image_vars
