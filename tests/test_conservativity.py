"""Inference on the ML fragment agrees with a textbook oracle.

The fragment has no freezing, no annotations, and a prelude restricted
to classic ML schemes (quantifiers all top-level, bodies monomorphic).
"""

import random

import pytest

from freezeml.infer import InferError, infer, make_supply
from freezeml.parser import parse_term, parse_type
from freezeml.statics import StaticsError
from freezeml.syntax import (
    Con,
    Forall,
    KindEnv,
    TVar,
    Type,
    TypeEnv,
    decompose,
    is_monotype,
)

from dm_oracle import DMError, dm_principal
from generators import random_ml_term

ML_PRELUDE_SOURCES = (
    ("head", "forall a. [a] -> a"),
    ("tail", "forall a. [a] -> [a]"),
    ("[]", "forall a. [a]"),
    ("::", "forall a. a -> [a] -> [a]"),
    ("single", "forall a. a -> [a]"),
    ("++", "forall a. [a] -> [a] -> [a]"),
    ("length", "forall a. [a] -> Int"),
    ("id", "forall a. a -> a"),
    ("inc", "Int -> Int"),
    ("choose", "forall a. a -> a -> a"),
    ("map", "forall a b. (a -> b) -> [a] -> [b]"),
    ("app", "forall a b. (a -> b) -> a -> b"),
    ("revapp", "forall a b. a -> (a -> b) -> b"),
    ("pair", "forall a b. a -> b -> (a, b)"),
)


def _ml_env() -> tuple[TypeEnv, dict]:
    gamma = TypeEnv((n, parse_type(t)) for n, t in ML_PRELUDE_SOURCES)
    oracle_env = {n: parse_type(t) for n, t in ML_PRELUDE_SOURCES}
    return gamma, oracle_env


def canonical(ty: Type) -> Type:
    """Rename free variables to v0, v1, ... in first-occurrence order."""
    mapping: dict[str, str] = {}

    def walk(t: Type) -> Type:
        if isinstance(t, TVar):
            if t.name not in mapping:
                mapping[t.name] = f"v{len(mapping)}"
            return TVar(mapping[t.name])
        if isinstance(t, Con):
            return Con(t.con, tuple(walk(a) for a in t.args))
        raise AssertionError("ML results are monotypes")

    return walk(ty)


def freezeml_ml_infer(gamma: TypeEnv, term) -> Type:
    supply = make_supply(KindEnv(), {}, gamma, term)
    return infer(KindEnv(), {}, gamma, term, supply).ty


class TestOracleSelfChecks:
    def test_identity(self):
        _, env = _ml_env()
        got = dm_principal(env, parse_term("\\x. x"))
        assert canonical(got) == canonical(parse_type("c -> c"))

    def test_let_polymorphism(self):
        _, env = _ml_env()
        got = dm_principal(env, parse_term("let f = \\x. x in (f 1, f True)"))
        assert got == parse_type("(Int, Bool)")

    def test_value_restriction_in_oracle(self):
        _, env = _ml_env()
        # the bound application is not generalised, so using it at two
        # types must fail
        with pytest.raises(DMError):
            dm_principal(
                env, parse_term("let f = id id in (f 1, f True)")
            )

    def test_occurs_check(self):
        _, env = _ml_env()
        with pytest.raises(DMError):
            dm_principal(env, parse_term("\\x. x x"))


class TestAgreement:
    def test_generated_ml_terms(self):
        gamma, oracle_env = _ml_env()
        rng = random.Random(1234)
        agreements = 0
        for _ in range(600):
            term = random_ml_term(rng, (), rng.randrange(0, 6))
            try:
                oracle_ty = dm_principal(oracle_env, term)
                oracle_failed = False
            except DMError:
                oracle_failed = True
            try:
                our_ty = freezeml_ml_infer(gamma, term)
                we_failed = False
            except (InferError, StaticsError):
                we_failed = True
            assert oracle_failed == we_failed, term
            if not oracle_failed:
                assert canonical(our_ty) == canonical(oracle_ty), term
                agreements += 1
        assert agreements >= 150
