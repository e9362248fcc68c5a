import random

import pytest

from freezeml.parser import parse_type
from freezeml.prelude import build_prelude
from freezeml.subst import substitute
from freezeml.syntax import KindEnv, TypeEnv, alpha_eq, arrow, t_int
from freezeml.systemf import (
    FApp,
    FLam,
    FLit,
    FTyAbs,
    FTyApp,
    FTypeError,
    FUnboundVar,
    FVar,
    NotAForall,
    NotAFunction,
    TypeMismatch,
    ValueRestriction,
    f_let,
    f_tyabs_many,
    f_typecheck,
    is_f_value,
    parse_fterm,
    render_fterm,
)

from generators import random_f_term


PRELUDE = build_prelude()
EMPTY = KindEnv()
NO_VARS = TypeEnv()


def _is_plain_ident(name: str) -> bool:
    return name[0].isalpha() and all(c.isalnum() or c in "_'" for c in name)


IDENT_PRELUDE = TypeEnv(
    (name, entry) for name, entry in PRELUDE if _is_plain_ident(name)
)


def ty(src: str):
    return parse_type(src)


class TestTypecheck:
    def test_polymorphic_identity(self):
        term = FTyAbs("a", FLam("x", ty("a"), FVar("x")))
        assert alpha_eq(f_typecheck(EMPTY, NO_VARS, term), ty("forall a. a -> a"))

    def test_type_application_substitutes(self):
        gamma = TypeEnv((("x", ty("forall a. a -> a")),))
        term = FTyApp(FVar("x"), t_int)
        assert f_typecheck(EMPTY, gamma, term) == ty("Int -> Int")

    def test_application_mismatch(self):
        term = FApp(FLam("x", t_int, FVar("x")), FLit(True))
        with pytest.raises(TypeMismatch):
            f_typecheck(EMPTY, NO_VARS, term)

    def test_unbound(self):
        with pytest.raises(FUnboundVar):
            f_typecheck(EMPTY, NO_VARS, FVar("ghost"))

    def test_not_a_function(self):
        with pytest.raises(NotAFunction):
            f_typecheck(EMPTY, NO_VARS, FApp(FLit(1), FLit(2)))

    def test_not_a_forall(self):
        with pytest.raises(NotAForall):
            f_typecheck(EMPTY, NO_VARS, FTyApp(FLit(1), t_int))

    def test_value_restriction(self):
        # an application that is not a value redex under a type
        # abstraction is rejected
        gamma = TypeEnv((("f", ty("Int -> Int")),))
        term = FTyAbs("a", FApp(FVar("f"), FLit(1)))
        with pytest.raises(ValueRestriction):
            f_typecheck(EMPTY, gamma, term)

    def test_value_redexes_are_values(self):
        # (\x:A. V) W is a value when V and W are, and only then
        identity = FLam("x", t_int, FVar("x"))
        gamma = TypeEnv((("f", ty("Int -> Int")),))
        value = FApp(FLam("y", t_int, identity), FLit(1))
        assert is_f_value(value)
        checked = f_typecheck(EMPTY, gamma, FTyAbs("a", value))
        assert alpha_eq(checked, ty("forall a. Int -> Int"))
        for redex in (
            FApp(FLam("y", t_int, FApp(FVar("f"), FVar("y"))), FLit(1)),
            FApp(FLam("y", t_int, identity), FApp(FVar("f"), FLit(1))),
            FApp(FVar("f"), FLit(1)),
        ):
            assert not is_f_value(redex)
            with pytest.raises(ValueRestriction):
                f_typecheck(EMPTY, gamma, FTyAbs("a", redex))

    def test_instantiations_are_values(self):
        gamma = TypeEnv((("x", ty("forall a. forall b. a -> b -> a")),))
        term = FTyAbs("c", FTyApp(FTyApp(FVar("x"), ty("c")), t_int))
        assert is_f_value(FTyApp(FVar("x"), t_int))
        f_typecheck(EMPTY.extend(), gamma, term)

    def test_capture_avoiding_substitution(self):
        # (forall b. a -> b)[b := a] must not capture
        gamma = TypeEnv((("x", ty("forall a. forall b. a -> b")),))
        term = FTyApp(FVar("x"), ty("b"))
        result = f_typecheck(KindEnv(("b",)), gamma, term)
        assert alpha_eq(result, ty("forall c. b -> c"))

    def test_unbound_type_argument(self):
        gamma = TypeEnv((("x", ty("forall a. a -> a")),))
        with pytest.raises(FTypeError):
            f_typecheck(EMPTY, gamma, FTyApp(FVar("x"), ty("ghost")))


class TestLetSugar:
    def test_let_typechecks_at_body_type(self):
        term = f_let("x", t_int, FLit(1), FVar("x"))
        assert f_typecheck(EMPTY, NO_VARS, term) == t_int

    def test_nary_tyabs(self):
        term = f_tyabs_many(("a", "b"), FLam("x", ty("a"), FLam("y", ty("b"), FVar("x"))))
        assert alpha_eq(
            f_typecheck(EMPTY, NO_VARS, term), ty("forall a b. a -> b -> a")
        )

    def test_nary_tyapp_left_nested(self):
        gamma = TypeEnv((("x", ty("forall a b. a -> b -> a")),))
        term = FTyApp(FTyApp(FVar("x"), t_int), ty("Bool"))
        assert f_typecheck(EMPTY, gamma, term) == ty("Int -> Bool -> Int")


class TestUniqueness:
    def test_rechecking_is_stable(self):
        rng = random.Random(71)
        from generators import GiveUp

        checked = 0
        for _ in range(300):
            try:
                term = random_f_term(rng, EMPTY, PRELUDE, depth=5)
            except GiveUp:
                continue
            first = f_typecheck(EMPTY, PRELUDE, term)
            second = f_typecheck(EMPTY, PRELUDE, term)
            assert alpha_eq(first, second)
            checked += 1
        assert checked >= 100

    def test_substitution_lemma_spot_checks(self):
        # checking a type application equals substituting into the
        # checked quantifier body
        rng = random.Random(73)
        from generators import GiveUp, random_f_type

        checked = 0
        for _ in range(300):
            try:
                term = random_f_term(rng, EMPTY, PRELUDE, depth=4)
            except GiveUp:
                continue
            body_ty = f_typecheck(EMPTY, PRELUDE, term)
            if not body_ty.__class__.__name__ == "Forall":
                continue
            arg = random_f_type(rng, (), depth=1)
            applied = f_typecheck(EMPTY, PRELUDE, FTyApp(term, arg))
            expected = substitute({body_ty.var: arg}, body_ty.body)
            assert alpha_eq(applied, expected)
            checked += 1
        assert checked >= 20


class TestPrinterParser:
    def test_examples(self):
        for source in (
            "/\\a. \\x:a. x",
            "\\x:Int. x",
            "id [Int]",
            "(\\x:Int -> Int. x) inc",
            "/\\a b. \\f:a -> b. f",
            "\\x:Int. (+) x 1",
            "(::) [Int] 1 (([]) [Int])",
            "(++) [Int] (([]) [Int])",
            "([])",
        ):
            term = parse_fterm(source)
            assert render_fterm(term) == source
            assert parse_fterm(render_fterm(term)) == term

    def test_deep_let_chain_renders(self):
        n = 500
        term = FVar(f"x{n}")
        for i in range(n, 0, -1):
            term = f_let(f"x{i}", t_int, FLit(i), term)
        expected = (
            "".join(f"(\\x{i}:Int. " for i in range(1, n + 1))
            + f"x{n}"
            + "".join(f") {i}" for i in range(n, 0, -1))
        )
        assert render_fterm(term) == expected

    def test_round_trip_generated(self):
        rng = random.Random(79)
        from generators import GiveUp

        checked = 0
        for _ in range(200):
            try:
                term = random_f_term(rng, EMPTY, IDENT_PRELUDE, depth=4)
            except GiveUp:
                continue
            assert parse_fterm(render_fterm(term)) == term
            checked += 1
        assert checked >= 60
