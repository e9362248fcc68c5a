"""Benchmark inputs, made from the workload seed before anything is timed.

Each workload is a list of ops written to a manifest plus the files the
ops read.  Every op carries the answer it must produce; the answers come
from the corpus column and from how each input was built, never from
running the checker.
"""

from __future__ import annotations

import json
import os
import random

import answers

CORPUS = os.path.join("src", "freezeml", "corpus.fml")

# Why each workload and family is in the benchmark.
WHY = {
    "corpus": (
        "all corpus rows as the CLI commands users run; small programs, so "
        "fixed per-command costs (argument parsing, prelude, make_supply, the "
        "second inference and replay in show-elab/elaborate) dominate"
    ),
    "scaling": (
        "elaborate on four generated families at n = 25..200; costs that "
        "grow with program size, where sparse substitutions aim"
    ),
    "roundtrip": (
        "import an F term, then infer the printed encoding; Let/LetAnn-heavy "
        "terms with deep environments and repeated f_typecheck"
    ),
    "list_id": "[id, ..., id] loads infer, unify and subst (quadratic today)",
    "poly_list": "[~id, ...] unifies at quantified types",
    "nested_lam": "\\x1. ... \\xn. x1 spends its time in grounding and replay",
    "let_chain": "let xi = \\y. y in ... takes the Let generalisation path",
    "random_f": "seeded well-typed F terms from criterion 7's distribution",
    "f_let_chain": "F let chain: Let/LetAnn encoding with a deep environment",
}

SCALING_SIZES = (25, 50, 100, 200)
# parse_fterm rejects nesting about 130 deep, so the F ladder stops at 100.
ROUNDTRIP_SIZES = (25, 50, 100)
# 500 terms keep the mean output size within a few per cent across seeds.
RANDOM_TERMS = 500


def build(workload: str, seed: int, work: str) -> dict:
    """Write the inputs of `workload` under `work`; return the manifest."""
    rng = random.Random(f"{workload}:{seed}")
    maker = {"corpus": _corpus, "scaling": _scaling, "roundtrip": _roundtrip}[workload]
    ops = maker(rng, work)
    rng.shuffle(ops)
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload], "ops": ops}
    with open(os.path.join(work, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return manifest


def _write(work: str, name: str, text: str) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def corpus_rows(text: str) -> list[dict]:
    """Rows of the corpus file: label, source, expected type or None, extras."""
    rows = []
    label = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            label = line.lstrip("# ").split(" (")[0].strip()
            continue
        source, _, rhs = line.partition("⊢")
        rhs = rhs.strip()
        extras = []
        if " where " in rhs:
            rhs, _, extra_text = rhs.partition(" where ")
            for part in extra_text.split(";"):
                name, _, ty = part.partition(":")
                if name.strip():
                    extras.append([name.strip(), ty.strip()])
        rows.append({
            "label": label or f"line {lineno}",
            "source": source.strip(),
            "expected": None if rhs.strip() == "FAIL" else rhs.strip(),
            "extras": extras,
            "line": lineno,
        })
        label = ""
    return rows


def _corpus(rng: random.Random, work: str) -> list[dict]:
    with open(CORPUS, encoding="utf-8") as handle:
        rows = corpus_rows(handle.read())
    ops = []
    for index, row in enumerate(rows):
        accepted = row["expected"] is not None
        size = len(answers.tokens(row["source"]))
        base = {"n": size, "row": row["label"]}
        ops.append({
            **base, "id": f"golden:{row['label']}", "kind": "golden", "family": "golden",
            "corpus_row": row,
            "expect": {"type": answers.answer(row["expected"]) if accepted else None},
        })
        if row["extras"]:
            continue  # the CLI cannot extend the prelude; golden covers these
        path = _write(work, f"row{index:02d}.fml", row["source"] + "\n")
        ops.append({
            **base, "id": f"infer:{row['label']}", "kind": "cli", "family": "infer",
            "argv": ["infer", "--show-elab", path],
            "expect": {
                "exit": 0 if accepted else 1,
                "type": answers.answer(row["expected"]) if accepted else None,
                "where": "first",
                "nodes": accepted,
            },
        })
        if not accepted:
            continue
        grounded = answers.answer(row["expected"], ground=True)
        ops.append({
            **base, "id": f"elaborate:{row['label']}", "kind": "cli", "family": "elaborate",
            "argv": ["elaborate", path],
            "expect": {"exit": 0, "type": grounded, "where": "last", "nodes": True},
        })
        ops.append({
            **base, "id": f"check:{row['label']}", "kind": "cli", "family": "check",
            "argv": ["check", path, "--type", grounded],
            "expect": {"exit": 0, "type": None, "where": None, "nodes": False},
        })
    return ops


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def family_program(family: str, n: int) -> tuple[str, str]:
    """Source of a scaling program and its elaborated type, by construction."""
    if family == "list_id":
        return "[" + ", ".join(["id"] * n) + "]", "[Int -> Int]"
    if family == "poly_list":
        return "[" + ", ".join(["~id"] * n) + "]", "[forall a. a -> a]"
    if family == "nested_lam":
        source = "".join(f"\\x{i}. " for i in range(1, n + 1)) + "x1"
        return source, " -> ".join(["Int"] * (n + 1))
    if family == "let_chain":
        source = "".join(f"let x{i} = \\y. y in " for i in range(1, n + 1)) + f"x{n}"
        return source, "Int -> Int"
    raise ValueError(family)


def _scaling(rng: random.Random, work: str) -> list[dict]:
    ops = []
    for family in ("list_id", "poly_list", "nested_lam", "let_chain"):
        for n in SCALING_SIZES:
            source, ty = family_program(family, n)
            path = _write(work, f"{family}_{n}.fml", source + "\n")
            ops.append({
                "id": f"elaborate:{family}:{n}", "kind": "cli", "family": family, "n": n,
                "argv": ["elaborate", path],
                "expect": {"exit": 0, "type": answers.answer(ty), "where": "last", "nodes": True},
            })
    return ops


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def _roundtrip(rng: random.Random, work: str) -> list[dict]:
    from freezeml.prelude import build_prelude
    from freezeml.syntax import KindEnv
    from freezeml.systemf import render_fterm

    prelude = build_prelude()
    ops = []

    def add(op_id: str, family: str, n: int, fterm, ty_tree) -> None:
        stem = op_id.replace(":", "_")
        source = _write(work, f"{stem}.f", render_fterm(fterm) + "\n")
        ops.append({
            "id": op_id, "kind": "roundtrip", "family": family, "n": n,
            "source": source, "encoding": os.path.join(work, f"{stem}.fml"),
            "expect": {"type": answers.render(answers.canonical(ty_tree))},
        })

    made = 0
    while made < RANDOM_TERMS:
        try:
            fterm, ty = random_f_term(rng, KindEnv(), prelude, depth=6)
        except GiveUp:
            continue
        add(f"random_f:{made:03d}", "random_f", 0, fterm, answers.of_type_object(ty))
        made += 1
    for n in ROUNDTRIP_SIZES:
        fterm = f_let_chain(n)
        add(f"f_let_chain:{n}", "f_let_chain", n, fterm, answers.parse_type("forall a. a -> a"))
    return ops


def f_let_chain(n: int):
    """let x1 : forall a. a -> a = /\\a. \\y:a. y in ... in xn, as an F term."""
    from freezeml.parser import parse_type
    from freezeml.systemf import FLam, FTyAbs, FVar, f_let

    ann = parse_type("forall a. a -> a")
    ident = FTyAbs("a", FLam("y", parse_type("a"), FVar("y")))
    body = FVar(f"x{n}")
    for i in range(n, 0, -1):
        body = f_let(f"x{i}", ann, ident, body)
    return body


# The generator below follows the test suite's criterion-7 generator
# (same choices, same probabilities) but also returns the type each term
# was built at, which is the round trip's answer.  It lives here so that
# editing the tests cannot change the benchmark's inputs.

class GiveUp(Exception):
    pass


def _positions(t, path=()):
    """Subterm positions of a type not under any quantifier."""
    from freezeml.syntax import Con

    found = [(path, t)]
    if isinstance(t, Con):
        for i, arg in enumerate(t.args):
            found.extend(_positions(arg, path + (i,)))
    return found


def _replace_at(t, path, replacement):
    from freezeml.syntax import Con

    if not path:
        return replacement
    head, rest = path[0], path[1:]
    return Con(t.con, tuple(
        _replace_at(arg, rest, replacement) if i == head else arg
        for i, arg in enumerate(t.args)
    ))


def random_f_type(rng: random.Random, delta_names: tuple, depth: int = 2):
    from freezeml.syntax import Con, Forall, TVar, arrow, t_bool, t_int

    options = [t_int, t_bool]
    options.extend(TVar(v) for v in delta_names)
    if depth <= 0:
        return rng.choice(options)
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(options)
    if roll < 0.75:
        return arrow(
            random_f_type(rng, delta_names, depth - 1),
            random_f_type(rng, delta_names, depth - 1),
        )
    fresh = f"q{rng.randrange(10**6)}"
    body = random_f_type(rng, delta_names + (fresh,), depth - 1)
    if not isinstance(body, (Con, Forall)) or body == TVar(fresh):
        body = arrow(TVar(fresh), TVar(fresh))
    return Forall(fresh, body)


def random_f_term(rng: random.Random, delta, gamma, depth: int = 6):
    """A well-typed F term of bounded depth and the type it was built at."""
    from freezeml.syntax import Con, Forall, TVar, alpha_eq, arrow, t_bool, t_int
    from freezeml.systemf import FApp, FLam, FLit, FTyAbs, FTyApp, FVar, is_f_value

    def inhabit(env, dlt, ty, budget, value_only):
        matching = [name for name, bound in env if alpha_eq(bound, ty)]
        choices = []
        if matching:
            choices.append("var")
        if ty == t_int or ty == t_bool:
            choices.append("lit")
        if isinstance(ty, Con) and ty.con.name == "->":
            choices.append("lam")
        if isinstance(ty, Forall):
            choices.append("tyabs")
        if budget > 0 and not value_only:
            choices.append("app")
        if budget > 0:
            choices.append("tyapp")
        if not choices:
            raise GiveUp
        rng.shuffle(choices)
        for choice in choices:
            try:
                if choice == "var":
                    return FVar(rng.choice(matching))
                if choice == "lit":
                    if ty == t_int:
                        return FLit(rng.randrange(0, 100))
                    return FLit(rng.random() < 0.5)
                if choice == "lam":
                    var = f"x{rng.randrange(10**6)}"
                    body = inhabit(env.extend(var, ty.args[0]), dlt, ty.args[1], budget - 1, False)
                    return FLam(var, ty.args[0], body)
                if choice == "tyabs":
                    body = inhabit(env, dlt.extend(ty.var), ty.body, budget - 1, True)
                    if not is_f_value(body):
                        raise GiveUp
                    return FTyAbs(ty.var, body)
                if choice == "tyapp":
                    positions = [
                        (path, sub)
                        for path, sub in _positions(ty)
                        if not isinstance(sub, TVar) or sub.name in dlt
                    ]
                    path, sub = rng.choice(positions)
                    fresh = f"q{rng.randrange(10**6)}"
                    pattern = ty
                    for p, s in _positions(ty):
                        if s == sub and rng.random() < 0.7:
                            pattern = _replace_at(pattern, p, TVar(fresh))
                    pattern = _replace_at(pattern, path, TVar(fresh))
                    operand = inhabit(env, dlt, Forall(fresh, pattern), budget - 1, value_only)
                    return FTyApp(operand, sub)
                if choice == "app":
                    arg_ty = random_f_type(rng, tuple(dlt.names()), depth=1)
                    fn = inhabit(env, dlt, arrow(arg_ty, ty), budget - 1, False)
                    arg = inhabit(env, dlt, arg_ty, budget - 1, False)
                    return FApp(fn, arg)
            except GiveUp:
                continue
        raise GiveUp

    target = random_f_type(rng, tuple(delta.names()), depth=rng.randrange(1, 3))
    return inhabit(gamma, delta, target, depth, False), target
