import random
from collections import Counter
from dataclasses import replace

import pytest

from freezeml import declcheck
from freezeml.declcheck import ReplayError, check_typing, match_instance, replay
from freezeml.infer import DVar, InferError, check_program, infer, make_supply
from freezeml.parser import parse_program, parse_term, parse_type
from freezeml.prelude import build_prelude
from freezeml.statics import StaticsError, wellscoped
from freezeml.syntax import (
    Kind,
    KindEnv,
    NameSupply,
    TVar,
    TypeEnv,
    arrow,
    decompose,
    desugar,
    ftv_ordered,
    t_int,
)
from freezeml.translate import ground_derivation, rebuild_derivation
from freezeml.unify import unify

from generators import (
    random_env_and_types,
    random_ground_type,
    random_subst_problem,
    random_surface_term,
    replace_at,
    top_level_positions,
)
from subst_oracles import inst_wf, match_instance as structural_match


PRELUDE = build_prelude()
EMPTY = KindEnv()


def ty(src: str):
    return parse_type(src)


def flex(*entries):
    return dict(entries)


class TestMatchInstance:
    def test_mono_slot_accepts_monotype(self):
        res = match_instance(EMPTY, flex(("a", Kind.MONO)), ty("a -> a"), ty("Int -> Int"))
        assert res is not None
        assert res["a"] == ty("Int")

    def test_shape_mismatch(self):
        res = match_instance(
            EMPTY, flex(("a", Kind.MONO)), ty("a -> a"), ty("forall b. b -> b")
        )
        assert res is None

    def test_mono_slot_rejects_polytype(self):
        res = match_instance(
            EMPTY,
            flex(("a", Kind.MONO)),
            ty("a -> a"),
            ty("(forall b. b -> b) -> (forall b. b -> b)"),
        )
        assert res is None

    def test_poly_slot_accepts_polytype(self):
        res = match_instance(
            EMPTY,
            flex(("a", Kind.POLY)),
            ty("a -> a"),
            ty("(forall b. b -> b) -> (forall b. b -> b)"),
        )
        assert res is not None

    def test_inconsistent_binding(self):
        res = match_instance(
            EMPTY, flex(("a", Kind.MONO)), ty("a -> a"), ty("Int -> Bool")
        )
        assert res is None

    def test_match_under_quantifier(self):
        res = match_instance(
            EMPTY,
            flex(("a", Kind.MONO)),
            ty("forall c. c -> a"),
            ty("forall d. d -> Int"),
        )
        assert res is not None
        assert res["a"] == ty("Int")

    def test_empty_match_is_an_empty_dict(self):
        # a match over no flexible variables succeeds with {}, which is
        # falsy: success is told from failure by `is None` only
        res = match_instance(EMPTY, flex(), ty("Int -> Int"), ty("Int -> Int"))
        assert res is not None and res == {}
        assert match_instance(EMPTY, flex(), ty("Int"), ty("Bool")) is None

    def test_skolem_cannot_leak_into_image(self):
        res = match_instance(
            EMPTY,
            flex(("a", Kind.MONO)),
            ty("forall c. c -> a"),
            ty("forall d. d -> d"),
        )
        assert res is None

    def test_skolem_escape_with_an_agreeing_second_occurrence(self):
        # `a` is solved to the opened quantifier's variable, and its second
        # occurrence agrees with that image: only the escape check rejects
        res = match_instance(
            EMPTY,
            flex(("a", Kind.MONO)),
            ty("forall c. (c -> a) -> a"),
            ty("forall d. (d -> d) -> d"),
        )
        assert res is None

    def test_pattern_variable_free_in_the_target_is_not_the_targets(self):
        # the target's `a` is rigid: `a -> a` would need it to equal Int
        res = match_instance(EMPTY, flex(("a", Kind.MONO)), ty("a -> a"), ty("a -> Int"))
        assert res is None

    def test_pattern_matches_itself(self):
        a_to_a = ty("a -> a")
        res = match_instance(EMPTY, flex(("a", Kind.MONO)), a_to_a, a_to_a)
        assert res == {"a": TVar("a")}

    def test_agrees_with_the_structural_matcher(self):
        rng = random.Random(2007)
        shared = matched = 0
        for _ in range(1200):
            delta, theta, pattern, target = _matching_pair(rng)
            got = match_instance(delta, theta, pattern, target)
            want = structural_match(delta, theta, pattern, target)
            assert got == want, (delta.names(), theta, pattern, target)
            shared += not set(theta).isdisjoint(ftv_ordered(target))
            matched += got is not None
        assert shared >= 100, shared
        assert 100 <= matched <= 1100, matched


def _matching_pair(rng):
    """A pattern and target over flexible variables, for matching: either
    an independent or abstracted pair, or the images of the most general
    unifier against those of a constructed one, as in the completeness
    property of unification."""
    if rng.random() < 0.5:
        return random_env_and_types(rng)
    delta, theta, _, subst, a, b = random_subst_problem(rng)
    theta_mid, mgu = unify(delta, theta, a, b)
    *rest, last = mgu
    pattern, target = mgu[last], subst[last]
    for name in reversed(rest):
        pattern = arrow(mgu[name], pattern)
        target = arrow(subst[name], target)
    if rng.random() < 0.3:
        # a mismatch somewhere, most of the time
        path, _ = rng.choice(top_level_positions(target))
        target = replace_at(target, path, random_ground_type(rng))
    return delta, theta_mid, pattern, target


class TestCheckTyping:
    def test_poly_gen_example(self):
        m = desugar(parse_term("poly $(\\x. x)"))
        assert check_typing(EMPTY, PRELUDE, m, ty("(Int, Bool)"))

    def test_identity_instance(self):
        m = desugar(parse_term("\\x. x"))
        assert check_typing(EMPTY, PRELUDE, m, ty("Int -> Int"))

    def test_identity_not_polymorphic_without_let(self):
        m = desugar(parse_term("\\x. x"))
        assert not check_typing(EMPTY, PRELUDE, m, ty("forall a. a -> a"))

    def test_untypeable_rejects_everything(self):
        m = desugar(parse_term("let f = \\x. x in ~f 42"))
        for candidate in ("Int", "Int -> Int", "forall a. a -> a", "[Int]"):
            assert not check_typing(EMPTY, PRELUDE, m, ty(candidate))

    def test_agreement_with_inference(self):
        # whenever inference succeeds, the inferred type itself is accepted
        # by the oracle (with residual flexibles as rigid variables)
        rng = random.Random(303)
        checked = 0
        for _ in range(400):
            term = desugar(random_surface_term(rng, (), rng.randrange(0, 5)))
            try:
                wellscoped(EMPTY, term)
                supply = make_supply(EMPTY, {}, PRELUDE, term)
                result = infer(EMPTY, {}, PRELUDE, term, supply)
            except (InferError, StaticsError):
                continue
            rigidified = KindEnv(result.env)
            assert check_typing(rigidified, PRELUDE, term, result.ty)
            checked += 1
        assert checked >= 60

    def test_var_headed_instances_all_derivable(self):
        # implicit instantiation makes every kind-respecting instance of a
        # variable's type derivable
        m = desugar(parse_term("id"))
        for candidate in (
            "Int -> Int",
            "(forall a. a -> a) -> (forall a. a -> a)",
            "[Int] -> [Int]",
        ):
            assert check_typing(EMPTY, PRELUDE, m, ty(candidate))

    def test_instance_closure_is_not_free(self):
        # accepting a type does not entail accepting its instances: a
        # frozen variable has exactly its environment type
        m = desugar(parse_term("~id"))
        assert check_typing(EMPTY, PRELUDE, m, ty("forall a. a -> a"))
        assert not check_typing(EMPTY, PRELUDE, m, ty("Int -> Int"))

    def test_precondition_diagnostics(self):
        bad_scope = desugar(parse_term("\\(x : a). x"))
        with pytest.raises(StaticsError):
            check_typing(EMPTY, PRELUDE, bad_scope, ty("Int -> Int"))
        ok = desugar(parse_term("\\x. x"))
        with pytest.raises(StaticsError):
            check_typing(EMPTY, PRELUDE, ok, ty("a -> a"))


class TestReplay:
    def test_corpus_cross_check(self):
        from freezeml.cli import load_corpus

        for row in load_corpus():
            if row.expected is None:
                continue
            gamma = PRELUDE
            for name, extra in row.extras:
                gamma = gamma.extend(name, parse_type(extra))
            term = desugar(parse_program(row.source))
            derivation = rebuild_derivation(EMPTY, gamma, term)
            root = replay(EMPTY, gamma, derivation)
            # the walker's verdict agrees with the oracle
            rigidified = KindEnv(
                v for v in ftv_ordered(root) if v not in EMPTY
            )
            assert check_typing(rigidified, gamma, term, root)

    def test_replay_rejects_tampered_types(self):
        term = desugar(parse_term("poly ~id"))
        derivation = rebuild_derivation(EMPTY, PRELUDE, term)
        tampered = derivation.map_types(
            lambda t: ty("Bool") if t == ty("(Int, Bool)") else t
        )
        with pytest.raises(ReplayError):
            replay(EMPTY, PRELUDE, tampered)


class TestReplayMemo:
    """Replay builds each distinct instance once, but checks every Var
    node against its own recorded type and instantiation."""

    @staticmethod
    def with_second_id(derivation, **changes):
        # `[id, id]` is `id :: (id :: [])`; replay meets the first id first
        rest = derivation.arg
        second = replace(rest.fn.arg, **changes)
        return replace(derivation, arg=replace(rest, fn=replace(rest.fn, arg=second)))

    def test_untampered_list_replays(self):
        derivation = rebuild_derivation(EMPTY, PRELUDE, desugar(parse_term("[id, id]")))
        assert derivation.fn.arg.ty is derivation.arg.fn.arg.ty
        copied = self.with_second_id(derivation, ty=ty("Int -> Int"))
        assert replay(EMPTY, PRELUDE, copied) == ty("[Int -> Int]")

    @pytest.mark.parametrize(
        "changes",
        [{"ty": ty("Bool -> Bool")}, {"inst": (ty("Bool"),)}],
        ids=["ty", "inst"],
    )
    def test_a_tampered_second_occurrence_fails(self, changes):
        derivation = rebuild_derivation(EMPTY, PRELUDE, desugar(parse_term("[id, id]")))
        tampered = self.with_second_id(derivation, **changes)
        message = "^DVar: recorded type is not the recorded instantiation's image$"
        with pytest.raises(ReplayError, match=message):
            replay(EMPTY, PRELUDE, tampered)


def grounded(source: str):
    return rebuild_derivation(EMPTY, PRELUDE, desugar(parse_term(source)))


LET = "let f = \\x. x in f 1"
LET_ANN = "let (f : forall a. a -> a) = \\x. x in f 1"

# One tampered grounded derivation per premise of `replay`: (source of
# the derivation, tampering, Δ to replay under, the exact error text).
PREMISES = {
    "DFreeze unbound": (
        "~id", lambda d: replace(d, name="ghost"), EMPTY,
        "DFreeze: unbound variable 'ghost'",
    ),
    "DFreeze type": (
        "~id", lambda d: replace(d, ty=t_int), EMPTY,
        "DFreeze: recorded type differs from environment entry for 'id'",
    ),
    "DVar arity": (
        "id", lambda d: replace(d, inst=()), EMPTY,
        "DVar: instantiation arity mismatch",
    ),
    "DLit type": (
        "1", lambda d: replace(d, ty=ty("Bool")), EMPTY,
        "DLit: literal type mismatch",
    ),
    "DLamAnn kind": (
        "\\(x : Int). x", lambda d: replace(d, ann=TVar("b")), EMPTY,
        "DLamAnn: unbound type variable 'b'",
    ),
    "DLam kind": (
        "\\x. x", lambda d: replace(d, arg_ty=TVar("b")), EMPTY,
        "DLam: unbound type variable 'b'",
    ),
    "DLam monomorphic": (
        "\\x. x", lambda d: replace(d, arg_ty=ty("forall a. a -> a")), EMPTY,
        "DLam: unannotated parameter must be monomorphic",
    ),
    "DLam result": (
        "\\x. x", lambda d: replace(d, ty=ty("Int -> Bool")), EMPTY,
        "DLam: result type mismatch",
    ),
    "DApp arrow": (
        "id 1", lambda d: replace(d, fn=d.arg), EMPTY,
        "DApp: function position does not have an arrow type",
    ),
    "DApp argument": (
        "id 1", lambda d: replace(d, arg=grounded("True")), EMPTY,
        "DApp: argument type mismatch",
    ),
    "DApp result": (
        "id 1", lambda d: replace(d, ty=ty("Bool")), EMPTY,
        "DApp: result type mismatch",
    ),
    "DLet gen": (
        LET, lambda d: replace(d, gen_prefix=()), EMPTY,
        "DLet: recorded abstraction prefix disagrees with gen",
    ),
    "DLet generalised": (
        LET, lambda d: replace(d, var_ty=ty("forall a. a -> Int")), EMPTY,
        "DLet: binder type is not the generalised bound type",
    ),
    "DLet monomorphic instance": (
        "let f = id id in f 1", lambda d: replace(d, var_ty=ty("Bool -> Bool")), EMPTY,
        "DLet: binder type is not a monomorphic instance",
    ),
    "DLet result": (
        LET, lambda d: replace(d, ty=ty("Bool")), EMPTY,
        "DLet: result type mismatch",
    ),
    "DLetAnn kind": (
        LET_ANN, lambda d: replace(d, ann=TVar("b")), EMPTY,
        "DLetAnn: unbound type variable 'b'",
    ),
    "DLetAnn split": (
        LET_ANN, lambda d: replace(d, split_prefix=()), EMPTY,
        "DLetAnn: recorded split prefix disagrees with split",
    ),
    "DLetAnn rebinds": (
        LET_ANN, lambda d: d, KindEnv(("a",)),
        "DLetAnn: annotation rebinds a type variable already in scope",
    ),
    "DLetAnn bound": (
        "let (f : Int -> Int) = \\x. x in f 1",
        lambda d: replace(d, ann=ty("Bool -> Bool")),
        EMPTY,
        "DLetAnn: bound type differs from the annotation's body",
    ),
    "DLetAnn result": (
        LET_ANN, lambda d: replace(d, ty=ty("Bool")), EMPTY,
        "DLetAnn: result type mismatch",
    ),
}


class TestReplayPremises:
    """Each premise `replay` checks rejects a derivation that breaks it
    alone, with its own message."""

    @pytest.mark.parametrize("source, tamper, delta, message", PREMISES.values(), ids=PREMISES)
    def test_a_broken_premise_fails_with_its_message(self, source, tamper, delta, message):
        derivation = grounded(source)
        assert replay(EMPTY, PRELUDE, derivation) == derivation.ty
        with pytest.raises(ReplayError) as caught:
            replay(delta, PRELUDE, tamper(derivation))
        assert str(caught.value) == message


def inst_wf_apart(delta: KindEnv, prefix: tuple[str, ...], images: tuple) -> bool:
    """Replay's former Var-rule check: rename the scheme's prefix apart
    from delta, then judge the instantiation with `inst_wf`."""
    supply = NameSupply(delta.names() + prefix)
    apart = tuple(supply.fresh() for _ in prefix)
    renamed = dict(zip(apart, images))
    return not prefix or inst_wf(delta, renamed, KindEnv(apart), Kind.POLY, KindEnv())


class TestReplayVar:
    def test_image_with_a_rigid_variable_out_of_scope(self):
        derivation = rebuild_derivation(EMPTY, PRELUDE, desugar(parse_term("id 1")))
        var = derivation.fn
        assert isinstance(var, DVar) and var.inst == (t_int,)
        stray = replace(var, inst=(TVar("r"),), ty=arrow(TVar("r"), TVar("r")))
        with pytest.raises(ReplayError, match="^DVar: instantiation not well-formed$"):
            replay(EMPTY, PRELUDE, stray)
        assert replay(KindEnv(("r",)), PRELUDE, stray) == stray.ty

    def test_prefix_named_like_a_rigid_variable_in_scope(self):
        # the annotation puts a rigid `a` in scope over the bound term,
        # where prelude `id : forall a. a -> a` is instantiated at it
        source = "let (f : forall a. a -> a) = \\x. id x in f 1"
        term = desugar(parse_term(source))
        derivation = rebuild_derivation(EMPTY, PRELUDE, term)
        var = derivation.bound.body.fn
        assert (var.name, var.inst) == ("id", (TVar("a"),))
        assert replay(EMPTY, PRELUDE, derivation) == t_int
        # the image `a` is the rigid one, not the prefix's: out of its
        # scope the node fails even though the prefix binds an `a`
        assert replay(KindEnv(("a",)), PRELUDE, var) == var.ty
        with pytest.raises(ReplayError, match="^DVar: instantiation not well-formed$"):
            replay(EMPTY, PRELUDE, var)

    def test_elaborate_prints_the_annotated_instantiation(self, tmp_path, capsys):
        from freezeml.cli import main

        path = tmp_path / "shadow.fml"
        path.write_text("let (f : forall a. a -> a) = \\x. id x in f 1\n", encoding="utf-8")
        assert main(["elaborate", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "(\\f:forall a. a -> a. f [Int] 1) (/\\a. \\x:a. id [a] x)\n: Int\n"
        assert err == ""

    def test_kind_check_agrees_with_renamed_apart_inst_wf(self, monkeypatch):
        # At every Var node replay meets, under the delta it meets it
        # with and under that delta less each of its names in turn (so
        # that both verdicts occur), replaying the node alone succeeds
        # exactly when the old check accepts its instantiation.  The
        # walker's scope is popped by the time it is read, so each Var
        # node's binding is recorded as it is met; replay meets every
        # leaf of the derivation through `_replay_leaf`.
        seen: list = []
        recorded = declcheck._replay_leaf

        def recording(delta, gamma, d, memo):
            if isinstance(d, DVar):
                seen.append((delta, TypeEnv([(d.name, gamma.lookup(d.name))]), d))
            return recorded(delta, gamma, d, memo)

        rng = random.Random(2024)
        accepted = 0
        verdicts = Counter()
        while accepted < 2000:
            term = random_surface_term(rng, (), rng.randrange(1, 7))
            try:
                result = check_program(EMPTY, PRELUDE, term)
            except (InferError, StaticsError):
                continue
            accepted += 1
            grounded = ground_derivation(EMPTY, PRELUDE, result)
            with monkeypatch.context() as patch:
                patch.setattr(declcheck, "_replay_leaf", recording)
                declcheck.replay(EMPTY, PRELUDE, grounded)
        for delta, gamma, d in seen:
            names = delta.names()
            prefix = decompose(gamma.lookup(d.name))[0]
            for smaller in (names, *(names[:i] + names[i + 1:] for i in range(len(names)))):
                narrowed = KindEnv(smaller)
                try:
                    verdict = replay(narrowed, gamma, d) is d.ty
                except ReplayError as err:
                    assert str(err) == "DVar: instantiation not well-formed"
                    verdict = False
                assert verdict == inst_wf_apart(narrowed, prefix, d.inst), (narrowed, d)
                verdicts[verdict] += 1
        assert verdicts[True] > 1000 and verdicts[False] > 100, verdicts
