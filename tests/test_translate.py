import random

import pytest

from freezeml import translate
from freezeml.declcheck import check_typing
from freezeml.infer import InferError, check_program, infer, make_supply
from freezeml.parser import parse_program, parse_term, parse_type, render_term
from freezeml.prelude import build_prelude
from freezeml.statics import StaticsError, wellscoped
from freezeml.subst import substitute
from freezeml.syntax import (
    Freeze,
    Inst,
    KindEnv,
    LamAnn,
    LetAnn,
    TVar,
    TypeEnv,
    Var,
    alpha_eq,
    classify,
    desugar,
    ftv_ordered,
    t_int,
    TermClass,
)
from freezeml.systemf import (
    FApp,
    FLam,
    FLit,
    FTyAbs,
    FTyApp,
    FTypeError,
    FVar,
    NotAFunction,
    TypeMismatch,
    f_typecheck,
    parse_fterm,
    render_fterm,
)
from freezeml.translate import (
    from_systemf,
    ground_derivation,
    readable_fterm,
    rebuild_derivation,
    to_systemf,
)

from generators import GiveUp, random_f_term, random_surface_term


PRELUDE = build_prelude()
EMPTY = KindEnv()


def ty(src: str):
    return parse_type(src)


def elaborate(source: str, gamma=PRELUDE):
    term = desugar(parse_program(source))
    derivation = rebuild_derivation(EMPTY, gamma, term)
    return derivation, to_systemf(derivation)


class TestRebuildDerivation:
    def test_frozen_leaf(self):
        derivation, _ = elaborate("~id")
        assert alpha_eq(derivation.ty, ty("forall a. a -> a"))

    def test_var_instantiation_recorded(self):
        # id in a context forcing Int
        derivation, _ = elaborate("(\\(f : Int -> Int). f 1) id")
        var_node = derivation.arg
        assert var_node.prefix == ("a",)
        assert var_node.inst == (ty("Int"),)

    def test_failure_propagates(self):
        term = desugar(parse_term("let f = \\x. x in ~f 42"))
        with pytest.raises(InferError):
            rebuild_derivation(EMPTY, PRELUDE, term)

    def test_residuals_grounded(self):
        derivation, elaborated = elaborate("\\x. x")
        assert derivation.ty == ty("Int -> Int")
        assert f_typecheck(EMPTY, PRELUDE, elaborated) == ty("Int -> Int")


def node_types(derivation) -> list:
    """Every type of a derivation, in the order map_types visits them."""
    types: list = []
    derivation.map_types(lambda t: types.append(t) or t)
    return types


class TestGroundDerivationReference:
    """ground_derivation reads the derivation as written through the
    store's images with the residuals solved to Int, in one walk.  The
    reference is the two-step reading: the resolved derivation, then
    the grounding substitution."""

    @staticmethod
    def programs():
        from freezeml.cli import load_corpus

        for row in load_corpus():
            gamma = PRELUDE
            for name, extra in row.extras:
                gamma = gamma.extend(name, parse_type(extra))
            yield parse_program(row.source), gamma
        rng = random.Random(1414)
        for _ in range(2000):
            yield random_surface_term(rng, (), rng.randrange(1, 7)), PRELUDE

    def test_one_walk_equals_two_steps(self):
        checked = 0
        for term, gamma in self.programs():
            try:
                result = check_program(EMPTY, gamma, term)
            except (InferError, StaticsError):
                continue
            grounded = ground_derivation(EMPTY, gamma, result)  # before any read
            derivation = result.derivation
            assert result.derivation is derivation
            assert alpha_eq(derivation.ty, result.ty)  # grounding left it as it was
            solved = result.store.images.keys()
            types = node_types(derivation)
            assert all(solved.isdisjoint(ftv_ordered(t).keys()) for t in types)
            grounding = dict.fromkeys(result.env, t_int)
            reference = derivation.map_types(lambda t: substitute(grounding, t))
            assert render_term(grounded) == render_term(reference)
            pairs = zip(node_types(grounded), node_types(reference), strict=True)
            assert all(alpha_eq(a, b) for a, b in pairs)
            checked += 1
        assert checked > 900


class TestToSystemF:
    def test_frozen_variable_is_plain_variable(self):
        _, elaborated = elaborate("~id")
        assert elaborated == FVar("id")

    def test_annotated_lambda_homomorphic(self):
        _, elaborated = elaborate("\\(x : Int). x")
        assert elaborated == FLam("x", ty("Int"), FVar("x"))

    def test_worked_example_types_at_polymorphic_identity(self):
        derivation, elaborated = elaborate(
            "let app = \\f z. f z in app ~auto ~id"
        )
        checked = f_typecheck(EMPTY, PRELUDE, elaborated)
        assert alpha_eq(checked, ty("forall a. a -> a"))
        # the let-bound application function gets two explicit type
        # arguments, both at the polymorphic identity type
        apps = []

        def collect(t):
            if isinstance(t, FTyApp):
                apps.append(t.arg)
                collect(t.fn)
            elif isinstance(t, FApp):
                collect(t.fn)
                collect(t.arg)
            elif isinstance(t, (FLam, FTyAbs)):
                collect(t.body)

        collect(elaborated)
        poly_id = ty("forall a. a -> a")
        assert sum(1 for a in apps if alpha_eq(a, poly_id)) == 2

    def test_generalising_let_wraps_type_abstraction(self):
        _, elaborated = elaborate("let f = \\x. x in poly ~f")
        # (\f: forall a. a -> a. poly f) (/\a. \x:a. x)
        assert isinstance(elaborated, FApp)
        assert isinstance(elaborated.arg, FTyAbs)

    def test_corpus_preservation(self):
        from freezeml.cli import load_corpus

        for row in load_corpus():
            if row.expected is None:
                continue
            gamma = PRELUDE
            for name, extra in row.extras:
                gamma = gamma.extend(name, parse_type(extra))
            derivation, elaborated = elaborate(row.source, gamma)
            checked = f_typecheck(EMPTY, gamma, elaborated)
            assert alpha_eq(checked, derivation.ty), row.label

    def test_known_limit_generalised_let_of_let(self):
        # A guarded value that is itself a let elaborates to a value redex
        # under the type abstraction, which the core counts as a value.
        derivation, elaborated = elaborate("let f = (let y = 5 in \\z. z) in ~f")
        assert isinstance(elaborated.arg, FTyAbs)
        assert isinstance(elaborated.arg.body, FApp)
        checked = f_typecheck(EMPTY, PRELUDE, elaborated)
        assert alpha_eq(checked, derivation.ty)


class TestElaborate:
    """translate.elaborate, the one elaboration path, checks its output."""

    def test_returns_the_term_and_its_type(self):
        result = check_program(EMPTY, PRELUDE, parse_program("id@@"))
        fterm, checked = translate.elaborate(EMPTY, PRELUDE, result)
        assert render_fterm(fterm) == render_fterm(
            to_systemf(ground_derivation(EMPTY, PRELUDE, result))
        )
        assert checked == ty("Int -> Int")

    def test_ill_typed_translation_is_a_fault(self, monkeypatch):
        monkeypatch.setattr(translate, "to_systemf", lambda d: FApp(FLit(1), FLit(2)))
        result = check_program(EMPTY, PRELUDE, parse_program("1"))
        with pytest.raises(NotAFunction):
            translate.elaborate(EMPTY, PRELUDE, result)

    def test_translation_at_another_type_is_a_fault(self, monkeypatch):
        # well-typed in F, but not at the derivation's type
        monkeypatch.setattr(translate, "to_systemf", lambda d: FLit(1))
        result = check_program(EMPTY, PRELUDE, parse_program("True"))
        with pytest.raises(TypeMismatch):
            translate.elaborate(EMPTY, PRELUDE, result)


class TestFromSystemF:
    def test_variable_freezes(self):
        assert from_systemf(EMPTY, PRELUDE, FVar("id")) == Freeze("id")

    def test_type_abstraction_encoding(self):
        term = from_systemf(EMPTY, PRELUDE, parse_fterm("/\\a. \\x:a. x"))
        assert isinstance(term, LetAnn)
        assert alpha_eq(term.ann, ty("forall a. a -> a"))
        # the bound side instantiates with the `@` sugar
        assert isinstance(term.bound, Inst)
        assert isinstance(term.body, Freeze)
        inferred = infer_encoded(term)
        assert alpha_eq(inferred, ty("forall a. a -> a"))

    def test_type_application_encoding(self):
        gamma = PRELUDE.extend("x", ty("forall a. a -> a"))
        term = from_systemf(EMPTY, gamma, parse_fterm("x [Int]"))
        assert isinstance(term, LetAnn)
        assert term.ann == ty("Int -> Int")
        inferred = infer_encoded(term, gamma)
        assert inferred == ty("Int -> Int")

    def test_binders_avoid_the_terms_names(self):
        source = "/\\a. \\x:a. \\y:a. \\z:a. \\u:a. \\v:a. \\w:a. x"
        term = from_systemf(EMPTY, PRELUDE, parse_fterm(source))
        assert render_term(term).startswith("let (x6 : forall a. a -> ")
        assert render_term(term).endswith(")@ in ~x6")

    def test_naive_translation_is_incorrect(self):
        gamma = PRELUDE.extend("x", ty("forall a. a -> a"))
        naive = from_systemf(EMPTY, gamma, parse_fterm("x [Int]"), naive_tyapp=True)
        with pytest.raises(InferError):
            infer_encoded(naive, gamma)

    def test_values_stay_values(self):
        rng = random.Random(83)
        from freezeml.systemf import is_f_value

        checked = 0
        for _ in range(300):
            try:
                fterm = random_f_term(rng, EMPTY, PRELUDE, depth=4)
            except GiveUp:
                continue
            if not is_f_value(fterm):
                continue
            encoded = from_systemf(EMPTY, PRELUDE, fterm)
            assert classify(desugar(encoded)) >= TermClass.VAL
            checked += 1
        assert checked >= 60

    def test_round_trip_small(self):
        for source in ("/\\a. \\x:a. x", "\\x:Int. x", "id [Int] 1"):
            fterm = parse_fterm(source)
            expected = f_typecheck(EMPTY, PRELUDE, fterm)
            encoded = from_systemf(EMPTY, PRELUDE, fterm)
            assert alpha_eq(infer_encoded(encoded), expected)


class TestReadableFTerm:
    def test_renames_internal_names_apart(self):
        # `%0` and `%g0` become the first names not already in the term
        t = FTyAbs("%0", FLam("x", TVar("%0"), FTyAbs(
            "a", FLam("%g0", TVar("a"), FApp(FVar("%g0"), FVar("x")))
        )))
        assert render_fterm(readable_fterm(t)) == "/\\b. \\x:b. /\\a. \\y:a. y x"

    def test_term_without_internal_names_is_returned_as_is(self):
        t = parse_fterm("/\\a. \\x:a. x")
        assert readable_fterm(t) is t


def infer_encoded(term, gamma=PRELUDE):
    core = desugar(term)
    wellscoped(EMPTY, core)
    supply = make_supply(EMPTY, {}, gamma, core)
    return infer(EMPTY, {}, gamma, core, supply).ty


class TestImportRoundTrip:
    def test_generated_terms(self):
        rng = random.Random(97)
        checked = 0
        for _ in range(400):
            try:
                fterm = random_f_term(rng, EMPTY, PRELUDE, depth=6)
            except GiveUp:
                continue
            expected = f_typecheck(EMPTY, PRELUDE, fterm)
            encoded = from_systemf(EMPTY, PRELUDE, fterm)
            inferred = infer_encoded(encoded)
            assert alpha_eq(inferred, expected), render_fterm(fterm)
            checked += 1
        assert checked >= 200
