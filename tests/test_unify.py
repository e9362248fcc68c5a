import random

import pytest

from freezeml.parser import parse_type
from freezeml.subst import substitute
from freezeml.syntax import (
    Kind,
    KindEnv,
    NameSupply,
    TVar,
    alpha_eq,
    arrow,
    foralls,
    list_of,
    pair_of,
    t_int,
)
from freezeml.unify import (
    ConMismatch,
    OccursOrKind,
    RigidMismatch,
    SkolemEscape,
    Store,
    StructureMismatch,
    UnifyError,
    unify,
)

from generators import random_env_and_types, random_subst_problem
from subst_oracles import Subst, is_identity, match_instance, subst_wf


def ty(src: str):
    return parse_type(src)


EMPTY = KindEnv()
NO_FLEX: dict[str, Kind] = {}


def flex(*entries):
    return dict(entries)


class TestUnifyCases:
    def test_identical_ground(self):
        theta_out, subst = unify(EMPTY, NO_FLEX, t_int, t_int)
        assert theta_out == NO_FLEX
        assert is_identity(subst)

    def test_flexible_poly_takes_polytype(self):
        theta = flex(("a", Kind.POLY))
        theta_out, subst = unify(EMPTY, theta, TVar("a"), ty("forall b. b -> b"))
        assert theta_out == NO_FLEX
        assert alpha_eq(subst["a"], ty("forall b. b -> b"))

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
        assert theta_out["b"] is Kind.MONO
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


def store_of(rigid=(), **kinds):
    return Store(KindEnv(rigid), kinds, NameSupply())


class TestDictOutputs:
    """Unification hands back Θ' and θ' as plain dicts, in a fixed order."""

    def test_keys_follow_the_input_order(self):
        theta = {"c": Kind.POLY, "a": Kind.MONO, "b": Kind.POLY, "d": Kind.MONO}
        theta_out, subst = unify(
            EMPTY, theta, arrow(TVar("a"), TVar("c")), arrow(t_int, TVar("b"))
        )
        assert type(theta_out) is dict and type(subst) is dict
        assert list(subst) == ["c", "a", "b", "d"]
        assert subst == {"c": TVar("b"), "a": t_int, "b": TVar("b"), "d": TVar("d")}
        assert list(theta_out.items()) == [("b", Kind.POLY), ("d", Kind.MONO)]
        assert list(theta) == ["c", "a", "b", "d"]  # the input is not touched

    def test_store_hands_back_fresh_dicts(self):
        store = store_of(a=Kind.POLY, b=Kind.MONO)
        store.unify(TVar("a"), list_of(TVar("b")))
        kinds = store.theta()
        assert kinds == {"b": Kind.MONO} and kinds is not store.kinds
        kinds["z"] = Kind.POLY
        del kinds["b"]
        assert store.theta() == {"b": Kind.MONO}
        solution = store.solution(["a", "b"])
        assert solution == {"a": list_of(TVar("b")), "b": TVar("b")}
        assert solution is not store.images
        solution["a"] = t_int
        assert store.apply(TVar("a")) == list_of(TVar("b"))
        assert store.solution(["a"]) == {"a": list_of(TVar("b"))}


class TestSameObject:
    """Two sides that are one object unify at once: no walk, no image and,
    for a quantified type, no skolem drawn from the supply."""

    def test_quantified_type_against_itself(self):
        t = ty("forall a. a -> b")
        store = store_of(b=Kind.POLY)
        store.unify(t, t)
        assert store.images == {} and store.theta() == {"b": Kind.POLY}
        assert store.supply.fresh() == NameSupply().fresh()  # nothing drawn

    def test_equal_copies_still_skolemise(self):
        store = store_of(b=Kind.POLY)
        store.unify(ty("forall a. a -> b"), ty("forall a. a -> b"))
        assert store.images == {}
        assert store.supply.fresh() != NameSupply().fresh()

    def test_solved_heads_that_meet_in_one_object(self):
        t = ty("forall a. a -> a")
        store = store_of(x=Kind.POLY, y=Kind.POLY)
        store.unify(TVar("x"), t)
        store.unify(TVar("y"), t)
        store.unify(TVar("x"), TVar("y"))
        assert list(store.images) == ["x", "y"]
        assert store.supply.fresh() == NameSupply().fresh()


class TestErrorsThroughLinks:
    """The store keeps each solution as written, so a solved variable is a
    link to its image.  An error that only a link leads to is reported
    with the class and message of the error on the resolved types."""

    A, B, M, R = TVar("a"), TVar("b"), TVar("m"), TVar("r")

    def expect(self, store, pairs, message):
        *before, (left, right) = pairs
        for a, b in before:
            store.unify(a, b)
        with pytest.raises(OccursOrKind) as caught:
            store.unify(left, right)
        assert caught.value.message == message

    def test_occurs_through_an_earlier_solution(self):
        store = store_of(a=Kind.POLY, b=Kind.POLY)
        pairs = [(self.A, arrow(self.B, t_int)), (self.B, self.A)]
        self.expect(store, pairs, "a variable occurs in its own solution")

    def test_occurs_behind_a_link_inside_the_solution(self):
        store = store_of(a=Kind.POLY, b=Kind.POLY)
        pairs = [(self.A, arrow(self.B, t_int)), (self.B, list_of(self.A))]
        self.expect(store, pairs, "a variable occurs in its own solution")
        # the same through the public unify, in one call
        with pytest.raises(OccursOrKind, match="occurs in its own solution"):
            unify(
                EMPTY,
                flex(("a", Kind.POLY), ("b", Kind.POLY)),
                pair_of(self.A, self.B),
                pair_of(arrow(self.B, t_int), list_of(self.A)),
            )

    def test_quantifier_through_a_link_into_a_mono_variable(self):
        store = store_of(a=Kind.POLY, m=Kind.MONO)
        pairs = [(self.A, ty("forall x. x -> x")), (self.M, list_of(self.A))]
        message = "a variable of kind mono has a solution of kind poly"
        self.expect(store, pairs, message)
        with pytest.raises(OccursOrKind, match=message):
            unify(
                EMPTY,
                flex(("a", Kind.POLY), ("m", Kind.MONO)),
                pair_of(self.A, self.M),
                pair_of(ty("forall x. x -> x"), list_of(self.A)),
            )

    def test_unbound_variable_behind_a_link(self):
        # r leaves scope after a's solution mentions it, as an annotated
        # let's prefix does; m's solution reaches r only through a
        store = store_of(("r",), a=Kind.POLY, m=Kind.MONO)
        store.unify(self.A, list_of(self.R))
        store.rigid.discard("r")
        self.expect(store, [(self.M, list_of(self.A))], "a variable has an ill-kinded solution")

    def test_demotion_and_levels_reach_through_links(self):
        store = store_of(a=Kind.POLY, b=Kind.POLY, m=Kind.MONO)
        store.levels.update(a=2, b=2, m=1)
        store.unify(self.A, list_of(self.B))
        store.unify(self.M, arrow(self.A, t_int))
        assert store.kinds == {"b": Kind.MONO}
        assert store.levels["b"] == 1

    def test_long_chain_unifies_and_resolves(self):
        # 10 000 variable-to-variable solutions, each a link to the next:
        # following, solving and resolving must not recurse per link
        n = 10_000
        names = [f"v{i}" for i in range(n + 1)]
        store = store_of(m=Kind.MONO, **dict.fromkeys(names, Kind.POLY))
        for here, there in zip(names, names[1:]):
            store.unify(TVar(here), TVar(there))
        store.unify(self.M, list_of(TVar(names[0])))  # the walk follows the chain
        assert store.kinds[names[-1]] is Kind.MONO
        store.unify(TVar(names[0]), t_int)  # solves the chain's last variable
        assert store.apply(TVar(names[0])) == t_int
        assert store.apply(self.M) == list_of(t_int)
        assert all(image == t_int for _, image in store.solution(names).items())


def check_sound(delta, theta, a, b):
    """Returns True when unification succeeded and its contract held."""
    try:
        theta_out, subst = unify(delta, theta, a, b)
    except UnifyError:
        return False
    assert alpha_eq(substitute(subst, a), substitute(subst, b)), (a, b, subst)
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
    ``factor . subst_general == subst_specific`` pointwise, or None.  The
    matcher is the structural oracle, not the package's, which runs on
    the unification store: unification does not check its own
    completeness.
    """
    domain = tuple(subst_general)
    if not domain:
        return {}
    pattern = None
    target = None
    for name in reversed(domain):
        p = subst_general[name]
        t = subst_specific[name]
        pattern = p if pattern is None else arrow(p, pattern)
        target = t if target is None else arrow(t, target)
    return match_instance(delta, theta_mid, pattern, target)


class TestCompleteness:
    def test_constructed_unifiable_pairs(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(1200):
            delta, theta, theta_out, subst, a, b = random_subst_problem(rng)
            assert alpha_eq(substitute(subst, a), substitute(subst, b))
            theta_mid, mgu = unify(delta, theta, a, b)
            # the most general unifier factors the constructed one
            factor = factor_through(delta, theta_mid, mgu, subst)
            assert factor is not None, (a, b, mgu, subst)
            for name in subst:
                assert alpha_eq(substitute(factor, mgu[name]), subst[name])
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
            assert set(theta_out) <= set(theta)
            image_vars = set(Subst(subst).ftv())
            for name in theta_out:
                assert name in image_vars
