"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time

import pytest

from freezeml.cli import load_corpus, run_corpus_row
from freezeml.declcheck import check_typing, match_instance
from freezeml.infer import InferError, check_program, infer, make_supply
from freezeml.parser import parse_program, parse_type
from freezeml.prelude import build_prelude
from freezeml.statics import StaticsError, wellscoped
from freezeml.subst import substitute
from freezeml.syntax import (
    Forall,
    Kind,
    KindEnv,
    TypeEnv,
    alpha_eq,
    decompose,
    desugar,
    foralls,
    ftv_ordered,
    t_int,
)
from freezeml.systemf import FApp, FTerm, FTyAbs, f_typecheck
from freezeml.translate import elaborate, from_systemf, rebuild_derivation, to_systemf
from freezeml.unify import UnifyError, unify

from dm_oracle import DMError, dm_principal
from generators import (
    GiveUp,
    random_env_and_types,
    random_f_term,
    random_ground_type,
    random_ml_term,
    random_subst_problem,
    random_surface_term,
)
from subst_oracles import subst_wf
from test_conservativity import ML_PRELUDE_SOURCES, canonical

PRELUDE = build_prelude()
EMPTY = KindEnv()


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_golden_corpus():
    """Every corpus row reproduces the published verdict."""
    start = time.perf_counter()
    rows = load_corpus()
    failures = []
    for row in rows:
        ok, detail = run_corpus_row(row, PRELUDE)
        if not ok:
            failures.append((row.label, detail))
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"
    report(
        "criterion 1 (golden corpus)",
        f"{len(rows)} rows reproduced in {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_unification_soundness():
    """On success, the unifier equates both sides and is well-formed."""
    rng = random.Random(20240501)
    start = time.perf_counter()
    total = 1500
    successes = 0
    for _ in range(total):
        delta, theta, a, b = random_env_and_types(rng)
        try:
            theta_out, subst = unify(delta, theta, a, b)
        except UnifyError:
            continue
        assert alpha_eq(substitute(subst, a), substitute(subst, b)), (a, b)
        assert subst_wf(delta, subst, theta, theta_out), (a, b)
        successes += 1
    elapsed = time.perf_counter() - start
    assert total >= 1000
    assert successes >= 400, successes
    assert elapsed < 5.0, f"soundness run took {elapsed:.2f}s"
    report(
        "criterion 2 (unification soundness)",
        f"{total} instances, {successes} unifiable, all sound, {elapsed:.2f}s",
    )


def test_criterion_3_unification_completeness():
    """Constructed unifiable pairs unify, and the result is most general."""
    from test_unify import factor_through

    rng = random.Random(20240502)
    total = 1200
    checked = 0
    for _ in range(total):
        delta, theta, theta_out, subst, a, b = random_subst_problem(rng)
        assert alpha_eq(substitute(subst, a), substitute(subst, b))
        theta_mid, mgu = unify(delta, theta, a, b)  # must not fail
        factor = factor_through(delta, theta_mid, mgu, subst)
        assert factor is not None, (a, b)
        for name in subst:
            assert alpha_eq(substitute(factor, mgu[name]), subst[name])
        checked += 1
    assert checked >= 1000
    report(
        "criterion 3 (unification completeness)",
        f"{checked} constructed pairs unified and factored",
    )


def _generate_wellscoped_terms(seed: int, count: int):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        term = desugar(random_surface_term(rng, (), rng.randrange(0, 6)))
        try:
            wellscoped(EMPTY, term)
        except StaticsError:
            continue
        produced += 1
        yield term


def test_criterion_4_inference_soundness():
    """Inference successes are validated by the declarative oracle."""
    successes = 0
    total = 1100
    for term in _generate_wellscoped_terms(20240503, total):
        try:
            supply = make_supply(EMPTY, {}, PRELUDE, term)
            result = infer(EMPTY, {}, PRELUDE, term, supply)
        except InferError:
            continue
        rigidified = KindEnv(result.env)
        assert check_typing(rigidified, PRELUDE, term, result.ty), term
        successes += 1
    assert total >= 1000
    assert successes >= 150, successes
    report(
        "criterion 4 (inference soundness)",
        f"{total} well-scoped terms, {successes} typeable, all validated",
    )


def _random_instance(rng, theta_res, result_ty):
    mapping = {}
    for name, kind in theta_res.items():
        if kind is Kind.MONO:
            mapping[name] = random_ground_type(rng, depth=1, kind=Kind.MONO)
        else:
            mapping[name] = random_ground_type(rng, depth=1, kind=Kind.POLY)
    return mapping, substitute(mapping, result_ty)


CRAFTED_TYPEABLE = (
    "\\x. x",
    "\\x y. y",
    "\\x y. (x, y)",
    "\\x. (x, x)",
    "single id",
    "choose id",
    "choose (head ids)@",
    "$(\\x y. (x, y))",
    "$(\\x y. x)",
    "$(\\x. single x)",
    "let f = \\x. x in f",
    "\\f. \\x. f x",
)


def test_criterion_5_principality():
    """Instances of the principal type are accepted; non-instances rejected."""
    rng = random.Random(20240504)
    typeable = []
    for source in CRAFTED_TYPEABLE:
        term = desugar(parse_program(source))
        supply = make_supply(EMPTY, {}, PRELUDE, term)
        typeable.append((term, infer(EMPTY, {}, PRELUDE, term, supply)))
    for term in _generate_wellscoped_terms(20240505, 4000):
        try:
            supply = make_supply(EMPTY, {}, PRELUDE, term)
            result = infer(EMPTY, {}, PRELUDE, term, supply)
        except InferError:
            continue
        typeable.append((term, result))
        if len(typeable) >= 260:
            break
    assert len(typeable) >= 200, len(typeable)

    negative_checks = 0
    for term, result in typeable:
        for _ in range(10):
            _, candidate = _random_instance(rng, result.env, result.ty)
            assert check_typing(EMPTY, PRELUDE, term, candidate), (
                term,
                candidate,
            )
        # poly image at a monomorphic slot must be rejected
        mono_slots = [
            name
            for name, kind in result.env.items()
            if kind is Kind.MONO and name in ftv_ordered(result.ty)
        ]
        if mono_slots:
            bad_slot = rng.choice(mono_slots)
            mapping = {}
            for name, kind in result.env.items():
                if name == bad_slot:
                    mapping[name] = parse_type("forall a. a -> a")
                else:
                    mapping[name] = random_ground_type(rng, depth=1, kind=Kind.MONO)
            candidate = substitute(mapping, result.ty)
            assert not check_typing(EMPTY, PRELUDE, term, candidate), (
                term,
                candidate,
            )
            negative_checks += 1
        # quantifier-prefix reorder where the order matters
        prefix, body = decompose(result.ty)
        if len(prefix) >= 2 and not set(prefix) & set(result.env):
            swapped = (prefix[1], prefix[0]) + prefix[2:]
            candidate = foralls(swapped, body)
            if not alpha_eq(candidate, result.ty) and not ftv_ordered(candidate):
                assert not check_typing(EMPTY, PRELUDE, term, candidate), (
                    term,
                    candidate,
                )
                negative_checks += 1
    assert negative_checks >= 50, negative_checks
    report(
        "criterion 5 (principality)",
        f"{len(typeable)} terms x 10 instances accepted, "
        f"{negative_checks} non-instances rejected",
    )


def test_criterion_6_elaboration_preservation():
    """Corpus terms elaborate type-preservingly; the naive import breaks."""
    rows = [row for row in load_corpus() if row.expected is not None]
    naive_failures = 0
    for row in rows:
        gamma = PRELUDE
        for name, extra in row.extras:
            gamma = gamma.extend(name, parse_type(extra))
        term = desugar(parse_program(row.source))
        derivation = rebuild_derivation(EMPTY, gamma, term)
        elaborated = to_systemf(derivation)
        checked = f_typecheck(EMPTY, gamma, elaborated)
        assert alpha_eq(checked, derivation.ty), row.label
        # re-import with the naive type-application translation
        naive = from_systemf(EMPTY, gamma, elaborated, naive_tyapp=True)
        naive_core = desugar(naive)
        try:
            wellscoped(EMPTY, naive_core)
            supply = make_supply(EMPTY, {}, gamma, naive_core)
            naive_ty = infer(EMPTY, {}, gamma, naive_core, supply).ty
            if not alpha_eq(naive_ty, checked):
                naive_failures += 1
        except (InferError, StaticsError):
            naive_failures += 1

    # the worked example: the translated application function re-checks at
    # the polymorphic identity type
    term = desugar(parse_program("let app = \\f z. f z in app ~auto ~id"))
    derivation = rebuild_derivation(EMPTY, PRELUDE, term)
    checked = f_typecheck(EMPTY, PRELUDE, to_systemf(derivation))
    assert alpha_eq(checked, parse_type("forall a. a -> a"))

    assert naive_failures >= 1, "naive translation unexpectedly fine everywhere"
    report(
        "criterion 6 (elaboration preservation)",
        f"{len(rows)} corpus terms preserved; naive import broke on "
        f"{naive_failures}",
    )


def test_elaboration_is_total():
    """Every program check_program accepts elaborates to an F term typed
    at its grounded inferred type, and the term's encoding infers it again."""
    programs = [parse_program(source) for source in ("id@@", "~id@@", "let x = id@ in x")]
    for seed in range(1000, 3000):
        rng = random.Random(seed)
        programs.append(random_surface_term(rng, (), rng.randint(1, 6)))
    start = time.perf_counter()
    typed = 0
    redexes_under_tyabs = 0
    for term in programs:
        try:
            result = check_program(EMPTY, PRELUDE, term)
        except (InferError, StaticsError):
            continue
        grounded = substitute(dict.fromkeys(result.env, t_int), result.ty)
        fterm, checked = elaborate(EMPTY, PRELUDE, result)
        assert alpha_eq(checked, grounded), term
        encoded = from_systemf(EMPTY, PRELUDE, fterm)
        assert alpha_eq(check_program(EMPTY, PRELUDE, encoded).ty, checked), term
        typed += 1
        redexes_under_tyabs += _tyabs_over_redex(fterm)
    elapsed = time.perf_counter() - start
    assert typed >= 900, typed
    assert redexes_under_tyabs >= 3, redexes_under_tyabs
    report(
        "elaboration is total",
        f"{len(programs)} programs, {typed} well-typed ({redexes_under_tyabs} with "
        f"a redex under a type abstraction), all F-checked and re-imported "
        f"in {elapsed:.2f}s",
    )


def _tyabs_over_redex(t) -> bool:
    """Does `t` have a type abstraction whose body is an application, a
    term that a value grammar without value redexes rejects?"""
    if isinstance(t, FTyAbs) and isinstance(t.body, FApp):
        return True
    children = (child for child in vars(t).values() if isinstance(child, FTerm))
    return any(_tyabs_over_redex(child) for child in children)


def test_criterion_7_import_round_trip():
    """Encoding a core term preserves its type through inference, exactly."""
    rng = random.Random(20240506)
    start = time.perf_counter()
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 5000:
        attempts += 1
        try:
            fterm = random_f_term(rng, EMPTY, PRELUDE, depth=6)
        except GiveUp:
            continue
        expected = f_typecheck(EMPTY, PRELUDE, fterm)
        encoded = desugar(from_systemf(EMPTY, PRELUDE, fterm))
        wellscoped(EMPTY, encoded)
        supply = make_supply(EMPTY, {}, PRELUDE, encoded)
        inferred = infer(EMPTY, {}, PRELUDE, encoded, supply).ty
        assert alpha_eq(inferred, expected), fterm
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 500, checked
    assert elapsed < 10.0, f"round trip took {elapsed:.2f}s"
    report(
        "criterion 7 (import round trip)",
        f"{checked} core terms round-tripped in {elapsed:.2f}s",
    )


def test_criterion_8_conservativity():
    """On the ML fragment, inference agrees with the textbook oracle."""
    gamma = TypeEnv((n, parse_type(t)) for n, t in ML_PRELUDE_SOURCES)
    oracle_env = {n: parse_type(t) for n, t in ML_PRELUDE_SOURCES}
    rng = random.Random(20240507)
    total = 700
    agreements = 0
    for _ in range(total):
        term = random_ml_term(rng, (), rng.randrange(0, 6))
        try:
            oracle_ty = dm_principal(oracle_env, term)
            oracle_ok = True
        except DMError:
            oracle_ok = False
        try:
            supply = make_supply(EMPTY, {}, gamma, term)
            ours = infer(EMPTY, {}, gamma, term, supply).ty
            ours_ok = True
        except (InferError, StaticsError):
            ours_ok = False
        assert oracle_ok == ours_ok, term
        if oracle_ok:
            assert canonical(ours) == canonical(oracle_ty), term
            agreements += 1
    assert total >= 500
    assert agreements >= 200, agreements
    report(
        "criterion 8 (conservativity)",
        f"{total} ML terms, verdicts agreed, {agreements} types matched",
    )


def test_criterion_9_no_performance_claims():
    """The only timing assertions are the budgets stated above."""
    budgets = {
        "golden corpus": 1.0,
        "unification soundness": 5.0,
        "import round trip": 10.0,
    }
    assert set(budgets) == {"golden corpus", "unification soundness", "import round trip"}
    report(
        "criterion 9 (no further performance claims)",
        "runtime budgets limited to corpus <1s, soundness <5s, round trip <10s",
    )
