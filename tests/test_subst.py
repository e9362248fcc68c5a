import random

import pytest

from freezeml.parser import parse_type
from freezeml.subst import _apply, instantiate, substitute
from freezeml.syntax import (
    INT,
    Con,
    Forall,
    Kind,
    KindEnv,
    NameSupply,
    TVar,
    alpha_eq,
    arrow,
    pair_of,
    t_bool,
    t_int,
)

from freezeml.unify import Store, UnifyError, unify

from generators import abstract_randomly, random_refined_env, random_subst_problem, random_type
from subst_oracles import Subst, demote, identity, inst_wf, kind_le, subst_wf


def ty(src: str):
    return parse_type(src)


EMPTY = KindEnv()


class TestApply:
    def test_simple(self):
        s = Subst({"a": t_int})
        assert s.apply(ty("a -> a")) == ty("Int -> Int")

    def test_capture_avoiding_renames_binder(self):
        s = Subst({"a": TVar("b")})
        result = s.apply(Forall("b", arrow(TVar("b"), TVar("a"))))
        assert alpha_eq(result, ty("forall c. c -> b"))
        # the binder moved out of the way
        assert isinstance(result, Forall)
        assert result.var != "b"

    def test_empty_is_identity(self):
        t = ty("forall a. a -> b")
        assert Subst({}).apply(t) == t

    def test_binder_shadows_mapping(self):
        s = Subst({"a": t_int})
        assert s.apply(Forall("a", TVar("a"))) == Forall("a", TVar("a"))

    def test_unmapped_unchanged(self):
        s = Subst({"a": t_int})
        assert s.apply(TVar("c")) == TVar("c")

    def test_preserves_alpha_equivalence(self):
        rng = random.Random(31)
        for _ in range(300):
            t = random_type(rng, ("m",), ("p",), depth=3)
            # build an alpha-variant by renaming one binder chain
            variant = _alpha_variant(t, rng)
            s = Subst({"m": ty("Int"), "p": ty("forall a. a -> a")})
            assert alpha_eq(t, variant)
            assert alpha_eq(s.apply(t), s.apply(variant))


def _alpha_variant(t, rng):
    if isinstance(t, Forall):
        fresh = f"w{rng.randrange(10**6)}"
        renamed = Subst({t.var: TVar(fresh)}).apply(t.body)
        return Forall(fresh, _alpha_variant(renamed, rng))
    return t


class TestInstantiate:
    def test_each_distinct_instance_is_built_once(self):
        scheme = ty("forall a b. a -> b -> a")
        memo: dict = {}
        first = instantiate(scheme, (t_int, t_bool), memo)
        assert first == ty("Int -> Bool -> Int")
        assert instantiate(scheme, (t_int, t_bool), memo) is first
        # equal images that are other objects are another key
        again = instantiate(scheme, (Con(INT), t_bool), memo)
        assert again == first and again is not first
        # fewer images open fewer quantifiers
        assert alpha_eq(instantiate(scheme, (t_int,), memo), ty("forall b. Int -> b -> Int"))
        # each value holds the objects its key names, so no id is reused
        assert len(memo) == 3
        for key, (held, images, _) in memo.items():
            assert key == (id(held), *map(id, images))

    def test_capture_avoiding(self):
        result = instantiate(ty("forall a b. a -> b"), (TVar("b"),), {})
        assert alpha_eq(result, ty("forall c. b -> c"))


class TestSharedTable:
    def test_equal_nodes_built_through_one_table_are_one_object(self):
        memo: dict = {}
        table: dict = {}

        def read(t):
            return _apply({"c": t_int}, t, memo, table)

        first = read(arrow(TVar("c"), t_bool))
        assert read(arrow(TVar("c"), t_bool)) is first
        # binders are part of the key: one body under two binder names
        body = arrow(TVar("c"), TVar("c"))
        left, right = read(Forall("a", body)), read(Forall("b", body))
        assert left.body is right.body
        assert (left, right) == (Forall("a", ty("Int -> Int")), Forall("b", ty("Int -> Int")))
        # without a table every node is built anew
        assert _apply({"c": t_int}, arrow(TVar("c"), t_bool), {}) is not first


class TestCompose:
    def test_identity_left(self):
        s = Subst({"a": ty("Int -> Int")})
        names = s.domain()
        assert Subst(identity(("a",))).compose(s) == s

    def test_pointwise(self):
        outer = Subst({"b": t_int})
        inner = Subst({"a": ty("b -> b")})
        composed = outer.compose(inner)
        assert composed.get("a") == ty("Int -> Int")
        assert composed.domain() == ("a",)

    def test_compose_with_empty_is_empty(self):
        outer = Subst({"b": t_int})
        assert outer.compose(Subst({})) == Subst({})

    def test_composition_coherence(self):
        # applying a composition equals applying the parts in sequence
        rng = random.Random(37)
        for _ in range(300):
            delta, theta, theta_out, s1, a, _ = random_subst_problem(rng)
            s1 = Subst(s1)
            out_names = tuple(theta_out)
            mapping = {}
            for name, kind in theta_out.items():
                mapping[name] = (
                    t_int if kind is Kind.MONO else ty("forall a. a -> a")
                )
            s2 = Subst(mapping)
            composed = s2.compose(s1)
            assert alpha_eq(composed.apply(a), s2.apply(s1.apply(a)))


class TestStoreSolutions:
    """The inference store keeps triangular solutions; resolved, they must
    agree with the paper's simultaneous composition."""

    def test_capture_through_a_later_solution(self):
        # a's image binds b; a later solve maps c to the rigid b
        delta = KindEnv(("b",))
        theta = {"a": Kind.POLY, "c": Kind.MONO}
        image = Forall("b", arrow(TVar("c"), TVar("b")))
        store = Store(delta, theta, NameSupply())
        store.unify(TVar("a"), image)
        store.unify(TVar("c"), TVar("b"))
        reference = Subst({"c": TVar("b")}).compose(Subst({"a": image}))
        expected = ty("forall x. b -> x")
        assert alpha_eq(store.apply(TVar("a")), expected)
        assert alpha_eq(reference.lookup("a"), expected)
        assert store.apply(TVar("c")) == TVar("b")
        chained = store.solution(("a",))
        # the same capture reached through a chain c -> d -> b
        theta = {"a": Kind.POLY, "c": Kind.MONO, "d": Kind.MONO}
        longer = Store(delta, theta, NameSupply())
        longer.unify(TVar("a"), image)
        longer.unify(TVar("c"), TVar("d"))
        longer.unify(TVar("d"), TVar("b"))
        assert alpha_eq(longer.apply(TVar("a")), expected)
        assert longer.solution(("a",)) == chained

    def test_capture_through_unification(self):
        delta = KindEnv(("b",))
        theta = {"a": Kind.POLY, "c": Kind.MONO}
        env, chained = unify(
            delta,
            theta,
            pair_of(TVar("a"), TVar("c")),
            pair_of(ty("forall b. c -> b"), TVar("b")),
        )
        assert alpha_eq(chained["a"], ty("forall x. b -> x"))
        assert subst_wf(delta, chained, theta, env)

    def test_chained_unifiers_match_simultaneous_composition(self):
        rng = random.Random(59)
        steps = 0
        for _ in range(300):
            delta = KindEnv(f"r{i}" for i in range(rng.randrange(0, 3)))
            theta0 = random_refined_env(rng, rng.randrange(2, 7))
            mono = tuple(delta.names()) + tuple(n for n, k in theta0.items() if k is Kind.MONO)
            poly = tuple(n for n, k in theta0.items() if k is Kind.POLY)
            env = theta0
            store = Store(delta, theta0, NameSupply())
            reference = Subst(identity(theta0))
            for _ in range(rng.randrange(2, 7)):
                if rng.random() < 0.5:
                    name = rng.choice(tuple(theta0))
                    kind = theta0[name]
                    a = TVar(name)
                    b = random_type(rng, mono, poly, depth=2, kind=kind)
                else:
                    target = random_type(rng, tuple(delta.names()), (), depth=3)
                    a = abstract_randomly(rng, target, theta0, tuple(delta.names()))
                    b = abstract_randomly(rng, target, theta0, tuple(delta.names()))
                try:
                    env_ref, step_ref = unify(
                        delta, env, reference.apply(a), reference.apply(b)
                    )
                except UnifyError:
                    # a failed unification ends the store's call
                    with pytest.raises(UnifyError):
                        store.unify(store.apply(a), store.apply(b))
                    break
                store.unify(store.apply(a), store.apply(b))
                assert list(store.theta().items()) == list(env_ref.items())
                reference = Subst(step_ref).compose(reference)
                env = env_ref
                steps += 1
                resolved = store.solution(theta0)
                assert tuple(resolved) == reference.domain()
                for name in theta0:
                    assert alpha_eq(resolved[name], reference.lookup(name))
                assert subst_wf(delta, resolved, theta0, env)
                probe = random_type(rng, mono, poly, depth=3)
                assert alpha_eq(store.apply(probe), reference.apply(probe))
        assert steps >= 300


class TestSubstWf:
    def test_mono_image_ok(self):
        theta = {"a": t_int}
        assert subst_wf(EMPTY, theta, {"a": Kind.MONO}, {})

    def test_poly_image_at_mono_slot_rejected(self):
        theta = {"a": ty("forall b. b -> b")}
        assert not subst_wf(EMPTY, theta, {"a": Kind.MONO}, {})

    def test_poly_image_at_poly_slot_ok(self):
        theta = {"a": ty("forall b. b -> b")}
        assert subst_wf(EMPTY, theta, {"a": Kind.POLY}, {})

    def test_s_identity(self):
        theta_env = {"a": Kind.MONO, "b": Kind.POLY}
        ident = identity(theta_env)
        assert subst_wf(EMPTY, ident, theta_env, theta_env)

    def test_s_weaken(self):
        theta_env = {"a": Kind.MONO}
        theta = {"a": t_int}
        assert subst_wf(EMPTY, theta, theta_env, {})
        wider = {"c": Kind.POLY}
        assert subst_wf(KindEnv(("r",)), theta, theta_env, wider)

    def test_s_compose(self):
        rng = random.Random(41)
        for _ in range(200):
            delta, theta_env, theta_out, s1, _, _ = random_subst_problem(rng)
            mapping = {
                name: (t_int if kind is Kind.MONO else ty("forall a. a -> a"))
                for name, kind in theta_out.items()
            }
            assert subst_wf(delta, s1, theta_env, theta_out)
            assert subst_wf(delta, mapping, theta_out, {})
            composed = Subst(mapping).compose(Subst(s1))
            assert subst_wf(delta, dict(composed.items()), theta_env, {})

    def test_s_strengthen(self):
        delta = KindEnv(("r", "s"))
        theta_env = {"a": Kind.MONO}
        theta = {"a": t_int}
        out = {"c": Kind.POLY}
        assert subst_wf(delta, theta, theta_env, out)
        # ftv(theta) mentions neither 's' nor 'c'
        assert subst_wf(KindEnv(("r",)), theta, theta_env, {})


class TestInstWf:
    def test_mono_image(self):
        inst = {"a": t_int}
        assert inst_wf(EMPTY, inst, KindEnv(("a",)), Kind.MONO, EMPTY)

    def test_poly_image_needs_poly_mode(self):
        inst = {"a": ty("forall b. b -> b")}
        assert not inst_wf(EMPTY, inst, KindEnv(("a",)), Kind.MONO, EMPTY)
        assert inst_wf(EMPTY, inst, KindEnv(("a",)), Kind.POLY, EMPTY)

    def test_application_kinding_admissible(self):
        # a kind-K type under a mode-K' instantiation lands at the join
        from freezeml.statics import kind_of

        rng = random.Random(53)
        for _ in range(300):
            delta = KindEnv(("r0", "r1"))
            inner = KindEnv(("a0", "a1"))
            mode = rng.choice((Kind.MONO, Kind.POLY))
            mapping = {
                name: random_type(
                    rng, tuple(delta.names()), (), depth=2, kind=mode
                )
                for name in inner
            }
            assert inst_wf(delta, mapping, inner, mode, EMPTY)
            source = random_type(
                rng, tuple(delta.names()) + tuple(inner.names()), (), depth=3
            )
            k = kind_of(KindEnv(delta.names() + inner.names()), source)
            image_kind = kind_of(delta, substitute(mapping, source))
            assert kind_le(image_kind, k.join(mode))


class TestDemote:
    def test_poly_is_identity(self):
        theta = {"a": Kind.POLY}
        assert demote(Kind.POLY, theta, ("a",)) == theta

    def test_mono_demotes_listed_only(self):
        theta = {"a": Kind.POLY, "b": Kind.POLY}
        out = demote(Kind.MONO, theta, ("a",))
        assert out["a"] is Kind.MONO
        assert out["b"] is Kind.POLY

    def test_empty(self):
        assert demote(Kind.MONO, {}, ("a",)) == {}

    def test_demote_soundness(self):
        # variables preserved, and the identity is a well-formed
        # substitution from the original into the demoted environment
        rng = random.Random(43)
        for _ in range(200):
            entries = [
                (f"t{i}", rng.choice((Kind.MONO, Kind.POLY)))
                for i in range(rng.randrange(1, 6))
            ]
            theta = dict(entries)
            chosen = tuple(name for name, _ in entries if rng.random() < 0.5)
            demoted = demote(Kind.MONO, theta, chosen)
            assert list(demoted) == list(theta)
            ident = identity(theta)
            assert subst_wf(EMPTY, ident, theta, demoted)
