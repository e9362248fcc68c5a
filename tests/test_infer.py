import dataclasses
import itertools
import random

import pytest

from freezeml.infer import (
    AnnotationEscape,
    CannotUnify,
    InferError,
    UnboundVar,
    check_program,
    gen,
    infer,
    make_supply,
    split,
)
from freezeml.parser import normalize_type_names, parse_term, parse_type, render_term
from freezeml.prelude import build_prelude
from freezeml.statics import StaticsError, wellscoped
from freezeml.syntax import (
    Kind,
    KindEnv,
    Span,
    TVar,
    Term,
    Type,
    TypeEnv,
    alpha_eq,
    arrow,
    classify,
    desugar,
    ftv_ordered,
    internal_index,
)

from generators import random_surface_term


PRELUDE = build_prelude()


def ty(src: str):
    return parse_type(src)


def infer_top(gamma: TypeEnv, m: Term) -> Type:
    """The display-normalised type of `m` under empty type environments."""
    return normalize_type_names(check_program(KindEnv(), gamma, m).ty)


def infer_str(source: str):
    term = desugar(parse_term(source))
    return infer_top(PRELUDE, term)


def expect_type(source: str, expected: str):
    got = infer_str(source)
    assert alpha_eq(got, ty(expected)), f"{source}: got {got}, want {expected}"


def expect_failure(source: str):
    term = desugar(parse_term(source))
    with pytest.raises((InferError, StaticsError)):
        infer_top(PRELUDE, term)


class TestGenSplit:
    def test_gen_guarded_value(self):
        prefix, generalisable = gen((), ty("a -> a"), parse_term("\\x. x"))
        assert prefix == ("a",)
        assert generalisable == ("a",)

    def test_gen_non_value(self):
        prefix, generalisable = gen((), TVar("a"), parse_term("x y"))
        assert prefix == ()
        assert generalisable == ("a",)

    def test_gen_nothing_generalisable(self):
        prefix, generalisable = gen(("a",), ty("a -> a"), parse_term("\\x. x"))
        assert prefix == ()
        assert generalisable == ()

    def test_split_guarded_value(self):
        prefix, body = split(ty("forall a. a -> a"), parse_term("\\x. x"))
        assert prefix == ("a",)
        assert body == ty("a -> a")

    def test_split_non_guarded(self):
        prefix, body = split(ty("forall a. a -> a"), parse_term("~id"))
        assert prefix == ()
        assert body == ty("forall a. a -> a")

    def test_split_unquantified(self):
        prefix, body = split(ty("Int"), parse_term("\\x. x"))
        assert prefix == ()
        assert body == ty("Int")


class TestInferExamples:
    def test_lambda_residuals(self):
        expect_type("\\x y. y", "a -> b -> b")

    def test_generalised_lambda(self):
        expect_type("$(\\x y. y)", "forall a b. a -> b -> b")

    def test_choose_frozen_id(self):
        expect_type("choose ~id", "(forall a. a -> a) -> (forall a. a -> a)")

    def test_head_ids(self):
        expect_type("head ids", "forall a. a -> a")

    def test_instantiated_head_ids(self):
        expect_type("(head ids)@ 3", "Int")

    def test_bad5_rejected(self):
        expect_failure("let f = \\x. x in ~f 42")

    def test_choose_id_autoprime_rejected(self):
        expect_failure("choose id auto'")

    def test_monomorphic_parameter_rejected(self):
        expect_failure("\\f. (poly ~f, (f 42) + 1)")

    def test_poly_gen_lambda(self):
        expect_type("poly $(\\x. x)", "(Int, Bool)")

    def test_id_auto(self):
        expect_type("id auto", "(forall a. a -> a) -> (forall a. a -> a)")

    def test_ordered_quantifiers_reject_swapped(self):
        gamma = PRELUDE.extend("f", ty("(forall a b. a -> b -> (a, b)) -> Int"))
        ok = desugar(parse_term("f ~pair"))
        assert alpha_eq(infer_top(gamma, ok), ty("Int"))
        bad = desugar(parse_term("f ~pair'"))
        with pytest.raises(InferError):
            infer_top(gamma, bad)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVar):
            infer_str("nonexistent")

    def test_annotation_escape(self):
        # the annotation's quantifier may not leak into the environment:
        # x's type would have to mention the bound variable
        expect_failure("\\x. let (g : forall a. a -> a) = \\(y : a). x in g")


class TestLetRestriction:
    def test_non_value_monomorphised(self):
        # (head ids)@ strips the quantifier, leaving a monomorphic use
        expect_type("choose (head ids)@", "(a -> a) -> (a -> a)")

    def test_non_value_cannot_feed_poly(self):
        expect_failure(
            "\\(bot : forall a. a). let f = bot bot in (poly ~f, (f 42) + 1)"
        )
        expect_failure(
            "\\(bot : forall a. a). let f = bot bot in ((f 42) + 1, poly ~f)"
        )

    def test_guarded_value_generalises(self):
        expect_type("let f = \\x. x in (f 1, f True)", "(Int, Bool)")

    def test_frozen_tail_blocks_generalisation(self):
        # binding a frozen variable re-exports its type verbatim
        expect_type("let g = ~id in poly ~g", "(Int, Bool)")


class TestInferTop:
    def test_returns_normalized_display(self):
        got = infer_top(PRELUDE, desugar(parse_term("\\x y. y")))
        assert list(ftv_ordered(got)) == ["a", "b"]

    def test_id_poly_gen(self):
        expect_type("id poly $(\\x. x)", "(Int, Bool)")


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        source = "let f = \\x. choose x in (f 1, poly ~id)"
        term = desugar(parse_term(source))
        delta = KindEnv()
        theta: dict[str, Kind] = {}

        def run():
            supply = make_supply(delta, theta, PRELUDE, term)
            return infer(delta, theta, PRELUDE, term, supply)

        first = run()
        second = run()
        assert first.ty == second.ty
        assert list(first.env.items()) == list(second.env.items())
        assert list(first.subst.items()) == list(second.subst.items())

    def test_generated_terms_deterministic(self):
        rng = random.Random(13)
        delta = KindEnv()
        theta: dict[str, Kind] = {}
        checked = 0
        for _ in range(200):
            term = desugar(random_surface_term(rng, (), rng.randrange(0, 5)))
            try:
                wellscoped(delta, term)
            except StaticsError:
                continue

            def run():
                supply = make_supply(delta, theta, PRELUDE, term)
                return infer(delta, theta, PRELUDE, term, supply)

            try:
                first = run()
            except InferError:
                continue
            second = run()
            assert first.ty == second.ty
            assert list(first.env.items()) == list(second.env.items())
            checked += 1
        assert checked >= 30


class TestDictOutputs:
    """Inference hands back Θ' and θ as plain dicts, in a fixed order."""

    def test_subst_keys_are_the_input_flexibles_in_order(self):
        delta = KindEnv()
        theta = {"w": Kind.POLY, "u": Kind.MONO, "v": Kind.MONO}
        gamma = PRELUDE.extend("x", arrow(TVar("u"), TVar("v")))
        term = desugar(parse_term("x 1"))
        result = infer(delta, theta, gamma, term, make_supply(delta, theta, gamma, term))
        assert type(result.subst) is dict and type(result.env) is dict
        assert list(result.subst) == ["w", "u", "v"]
        assert result.subst["u"] == ty("Int") and result.subst["w"] == TVar("w")
        # the result variable is created after the input ones
        assert list(result.env.items()) == [("w", Kind.POLY), (result.ty.name, Kind.MONO)]
        assert list(theta) == ["w", "u", "v"]  # the input is not touched

    def test_env_lists_residuals_in_creation_order(self):
        result = check_program(KindEnv(), PRELUDE, desugar(parse_term("\\f x. f x")))
        assert list(result.env) == list(ftv_ordered(result.ty))
        assert set(result.env.values()) == {Kind.MONO}
        # the supply numbers variables in creation order
        rng = random.Random(61)
        checked = 0
        for _ in range(1500):
            term = random_surface_term(rng, (), rng.randint(2, 6))
            try:
                result = check_program(KindEnv(), PRELUDE, term)
            except (InferError, StaticsError):
                continue
            indices = [internal_index(name) for name in result.env]
            assert None not in indices and indices == sorted(indices)
            checked += len(indices) >= 2
        assert checked >= 100, checked


class TestSchemeEdgeCases:
    def test_duplicate_quantifier_names_shadow_innermost(self):
        # a scheme with nested same-name quantifiers instantiates the
        # innermost binder for the body
        gamma = PRELUDE.extend("weird", ty("forall a. forall a. a -> a"))
        term = desugar(parse_term("weird 1"))
        assert infer_top(gamma, term) == ty("Int")

    def test_unused_quantifier_grounds_freely(self):
        gamma = PRELUDE.extend("konst", ty("forall a b. a -> a"))
        term = desugar(parse_term("konst 1"))
        assert infer_top(gamma, term) == ty("Int")


class TestErrorPayloads:
    def test_unify_failure_carries_types_and_span(self):
        term = desugar(parse_term("poly 1"))
        try:
            infer_top(PRELUDE, term)
        except CannotUnify as err:
            assert err.span is not None
            assert err.left is not None and err.right is not None
        else:
            pytest.fail("expected a unification failure")

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "poly (\\x. x)",
                "cannot unify a quantified type with an unquantified one:"
                " forall a. a -> a vs b -> b",
            ),
            (
                "\\(bot : forall a. a). let f = bot bot in (poly ~f, (f 42) + 1)",
                "a variable of kind mono has a solution of kind poly:"
                " b vs forall a. a -> a",
            ),
            ("\\x. x x", "a variable occurs in its own solution: a vs a -> b"),
            (
                "\\y. let f = \\x. y in poly ~f",
                "a quantified variable escapes its scope:"
                " forall a. a -> a vs forall c. c -> b",
            ),
            (
                "let (f : forall a. a -> a) = \\x. 1 in f",
                "cannot unify a rigid variable with another type: a vs Int",
            ),
            ("1 + True", "cannot unify Int with Bool: Int vs Bool"),
        ],
    )
    def test_unify_failure_names_both_types(self, source, message):
        with pytest.raises(CannotUnify) as err:
            infer_str(source)
        assert err.value.message == message
        assert str(err.value) == message

    def test_no_unify_failure_prints_an_internal_name(self):
        rng = random.Random(103)
        failed = 0
        for _ in range(2000):
            term = random_surface_term(rng, (), rng.randint(1, 6))
            try:
                check_program(KindEnv(), PRELUDE, term)
            except CannotUnify as err:
                assert "%" not in err.message, err.message
                failed += 1
            except (InferError, StaticsError):
                pass
        assert failed >= 200

    def test_unbound_var_carries_span(self):
        term = parse_term("missing 1")
        try:
            infer_top(PRELUDE, term)
        except UnboundVar as err:
            assert err.span is not None
            assert err.name == "missing"
        else:
            pytest.fail("expected an unbound variable failure")


class TestFreshnessHygiene:
    def test_untouched_flexibles_stay_identity(self):
        # flexible variables not free in the environment are untouched by
        # the substitution and absent from the result
        rng = random.Random(101)
        delta = KindEnv()
        checked = 0
        for _ in range(300):
            theta = {"u": Kind.MONO, "w": Kind.POLY}
            gamma = PRELUDE.extend("x", arrow(TVar("u"), ty("Int")))
            term = desugar(random_surface_term(rng, ("x",), rng.randrange(0, 4)))
            try:
                wellscoped(delta, term)
                supply = make_supply(delta, theta, gamma, term)
                result = infer(delta, theta, gamma, term, supply)
            except (InferError, StaticsError):
                continue
            assert result.subst["w"] == TVar("w")
            assert "w" not in ftv_ordered(result.ty)
            checked += 1
        assert checked >= 50


class TestApplicationVariables:
    """An application whose function type is a known arrow, as written or
    through a solved variable, unifies the arrow's domain with the
    argument and has its codomain as its type: it draws no variable.
    Counts cover every variable the store met, solved or not."""

    @staticmethod
    def counts(source: str) -> tuple[int, int]:
        store = check_program(KindEnv(), PRELUDE, parse_term(source)).store
        return len(store.images) + len(store.kinds), len(store.images)

    @pytest.mark.parametrize("n", [1, 2, 5, 200])
    def test_list_of_id(self, n):
        # one variable for each `::` and each `id`, one for `[]`
        assert self.counts("[" + ", ".join(["id"] * n) + "]") == (2 * n + 1, 2 * n)

    @pytest.mark.parametrize("n", [1, 2, 5, 200])
    def test_list_of_frozen_id(self, n):
        # a frozen `id` instantiates nothing
        assert self.counts("[" + ", ".join(["~id"] * n) + "]") == (n + 1, n + 1)

    def test_arrow_behind_a_solved_variable(self):
        # `(\x. x) id` has x's variable as its type, solved to id's arrow,
        # which the application to 1 then takes apart
        assert self.counts("(\\x. x) id 1") == (2, 2)
        expect_type("(\\x. x) id 1", "Int")

    def test_unknown_head_draws_a_variable(self):
        # f's variable is unsolved when f is applied, and is solved to
        # `Int -> b` for the drawn b
        assert self.counts("\\f. f 1") == (2, 1)
        expect_type("\\f. f 1", "(Int -> a) -> a")


class TestLetLevels:
    """Generalisation by let levels: a variable generalises only if no
    binding in scope reaches it."""

    def test_monomorphic_binding_reached_from_nested_let(self):
        # f stays monomorphic, so g, whose type mentions f's variable,
        # does not generalise although it is a guarded value
        expect_type("let f = id id in let g = \\x. f x in ~g", "a -> a")
        with pytest.raises(CannotUnify, match="cannot unify Int with Bool"):
            infer_str("let f = id id in let g = \\x. f x in (g 1, g True)")

    def test_parameter_solved_inside_nested_let_pins_variable(self):
        # x is solved to y's variable inside f's bound term, so f keeps it
        expect_type("\\x. let f = \\y. let u = x y in y in ~f", "(a -> b) -> a -> a")

    def test_annotation_escape_through_a_chain(self):
        # x is solved to y's unsolved variable, which the annotation then
        # solves to its prefix variable
        with pytest.raises(AnnotationEscape) as err:
            infer_str("\\x. let (f : forall a. a -> a) = \\y. let u = choose x y in y in f")
        assert err.value.message == "annotation variables ['a'] escape their binding"
        with pytest.raises(AnnotationEscape) as err:
            infer_str(
                "\\x. \\x2. let (f : forall a b. a -> b -> a) = "
                "\\y. \\v. let u = choose x y in let w = choose x2 v in y in f"
            )
        assert err.value.message == "annotation variables ['a', 'b'] escape their binding"

    def test_leak_then_unification_failure_reports_the_failure(self):
        with pytest.raises(CannotUnify, match="cannot unify Int with Bool"):
            infer_str(
                "\\x. let (f : forall a. a -> Int) = \\(y : a). let u = choose x y in True in f"
            )


def with_spans(m, counter):
    """`m` with a distinct span, numbered by `counter`, on every node."""
    children = {
        field: with_spans(getattr(m, field), counter)
        for field in ("fn", "arg", "bound", "body")
        if hasattr(m, field)
    }
    i = next(counter)
    return dataclasses.replace(m, span=Span(i, i, 1, i + 1), **children)


class TestDerivationIsItsTerm:
    def test_derivation_reads_as_the_desugared_term(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(400):
            term = random_surface_term(rng, (), rng.randrange(1, 6))
            term = with_spans(term, itertools.count())
            try:
                derivation = check_program(KindEnv(), PRELUDE, term).derivation
            except (InferError, StaticsError):
                continue
            checked += 1
            desugared = desugar(term)
            assert render_term(derivation) == render_term(desugared)
            assert derivation.span == term.span is not None
            stack = [(derivation, desugared)]
            while stack:
                node, source = stack.pop()
                assert isinstance(node, type(source))
                assert classify(node) is classify(source)
                assert node.span == source.span
                for field in ("fn", "arg", "bound", "body"):
                    if hasattr(source, field):
                        stack.append((getattr(node, field), getattr(source, field)))
        assert checked > 100
