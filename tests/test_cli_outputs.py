"""Byte-identity guard: the commands print what they printed when the
record was made.

``tests/cli_outputs.json`` holds the exit code, standard output and
standard error of ``infer``, ``infer --show-elab``, ``elaborate``,
``infer --unicode`` and ``elaborate --unicode`` on every corpus row (a
row's ``where`` extras join the prelude) and on a few
application-heavy programs, one record per run, and SHA-256 digests of
the same for seeded ``random_surface_term`` draws, one over the ASCII
commands and one over the Unicode ones.  It also holds
``import`` and ``import --unicode`` of the F term that ``elaborate``
prints for each of those programs that is well-typed, of one ill-typed
F term per System F type error, and, as one digest, of seeded
``random_f_term`` draws printed with ``render_fterm``.  The file
path is replaced by ``<input>`` in standard error.  A change meant to
keep behaviour keeps these bytes.  A change meant to alter output
rewrites the record with

    PYTHONPATH=src python tests/test_cli_outputs.py

and says in CHANGES.md which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import tempfile
from itertools import chain
from pathlib import Path
from unittest import mock

from freezeml import cli
from freezeml.cli import build_arg_parser, load_corpus
from freezeml.parser import parse_type, render_term
from freezeml.prelude import build_prelude
from freezeml.syntax import KindEnv
from freezeml.systemf import render_fterm

from generators import GiveUp, random_f_term, random_surface_term

RECORD = Path(__file__).with_name("cli_outputs.json")
COMMANDS = (("infer",), ("infer", "--show-elab"), ("elaborate",))
UNICODE_COMMANDS = (("infer", "--unicode"), ("elaborate", "--unicode"))
IMPORT_COMMANDS = (("import",), ("import", "--unicode"))
DRAW_SEEDS = range(7000, 7300)
PROGRAMS = {
    "list_id": "[" + ", ".join(["id"] * 6) + "]",
    "poly_list": "[" + ", ".join(["~id"] * 6) + "]",
    "id_chain": " ".join(["id"] * 6) + " 1",
    "app_chain": "let f = \\x y z. x in f 1 True (f id 2 3)",
    "apply_result": "(\\x. \\y. y) 1 2",
    "choose": "choose id ~id",
    "poly_id": "poly ~id id",
}
IMPORTED = ("list_id", "poly_list", "id_chain", "app_chain", "apply_result")  # the well-typed ones
ILL_TYPED_F = {  # one F term per System F type error
    "unbound variable": "ghost",
    "not a function": "1 2",
    "not a forall": "1 [Int]",
    "argument mismatch": "(\\x:Int. x) True",
    "value restriction": "/\\a. id [Int] 1",
    "rebinding type abstraction": "/\\a. /\\a. \\x:a. x",
    "unbound type variable": "\\x:b. x",
}
F_DRAW_SEEDS = range(8000, 8300)


def _run(parser, command: tuple[str, ...], path: str) -> list:
    out, err = io.StringIO(), io.StringIO()
    args = parser.parse_args([*command, path])
    code = args.handler(args, out=out, err=err)
    return [code, out.getvalue(), err.getvalue().replace(path, "<input>")]


def _runs(directory: str, sources, commands):
    """Each of `commands`' [exit code, stdout, stderr] on each (name,
    source, environment) of `sources`, in order."""
    parser = build_arg_parser()
    path = os.path.join(directory, "program.fml")
    for name, source, gamma in sources:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        with mock.patch.object(cli, "_environment", lambda args: gamma):
            for command in commands:
                yield name, " ".join(command), _run(parser, command, path)


def _named_sources():
    prelude = build_prelude()
    for row in load_corpus():
        gamma = prelude
        for name, ty in row.extras:
            gamma = gamma.extend(name, parse_type(ty))
        yield f"corpus line {row.line}", row.source, gamma
    for name, source in PROGRAMS.items():
        yield name, source, prelude


def _imported_sources(directory: str):
    """The F term of each well-typed named program's ASCII elaboration."""
    prelude = build_prelude()
    programs = [(name, PROGRAMS[name], prelude) for name in IMPORTED]
    for name, _, (_, out, _) in list(_runs(directory, programs, (("elaborate",),))):
        yield f"{name} import", out.splitlines()[0], prelude


def _ill_typed_sources():
    prelude = build_prelude()
    for error, source in ILL_TYPED_F.items():
        yield f"{error} import", source, prelude


def _drawn_f_sources():
    """Seeded well-typed F terms; a seed whose draw gives up is skipped."""
    prelude = build_prelude()
    for seed in F_DRAW_SEEDS:
        rng = random.Random(seed)
        try:
            term = random_f_term(rng, KindEnv(), prelude, depth=rng.randint(1, 6))
        except GiveUp:
            continue
        yield seed, render_fterm(term), prelude


def _drawn_sources():
    prelude = build_prelude()
    for seed in DRAW_SEEDS:
        rng = random.Random(seed)
        yield seed, render_term(random_surface_term(rng, (), rng.randint(1, 6))), prelude


def collect() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        named = [
            {"program": name, "command": command, "result": result}
            for name, command, result in chain(
                _runs(directory, _named_sources(), COMMANDS + UNICODE_COMMANDS),
                _runs(directory, _imported_sources(directory), IMPORT_COMMANDS),
                _runs(directory, _ill_typed_sources(), IMPORT_COMMANDS),
            )
        ]
        draws = _digest(directory, _drawn_sources(), DRAW_SEEDS, COMMANDS)
        unicode_draws = _digest(directory, _drawn_sources(), DRAW_SEEDS, UNICODE_COMMANDS)
        f_draws = _digest(directory, _drawn_f_sources(), F_DRAW_SEEDS, IMPORT_COMMANDS)
    return {"named": named, "draws": draws, "unicode_draws": unicode_draws, "f_draws": f_draws}


def _digest(directory: str, sources, seeds: range, commands) -> dict:
    digest = hashlib.sha256()
    runs = 0
    for _, _, result in _runs(directory, sources, commands):
        digest.update(json.dumps(result).encode("utf-8"))
        runs += 1
    return {"seeds": [seeds.start, seeds.stop], "runs": runs, "sha256": digest.hexdigest()}


def test_outputs_are_byte_identical_to_the_record():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    now = collect()
    assert len(now["named"]) == len(recorded["named"])
    for got, want in zip(now["named"], recorded["named"]):
        assert got == want, want["program"]
    assert now["draws"] == recorded["draws"]
    assert now["unicode_draws"] == recorded["unicode_draws"]
    assert now["f_draws"] == recorded["f_draws"]


def test_record_covers_every_corpus_row_and_command():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    rows = {f"corpus line {row.line}" for row in load_corpus()}
    runs = {(r["program"], r["command"]) for r in recorded["named"]}
    commands = COMMANDS + UNICODE_COMMANDS
    assert runs >= {(row, " ".join(c)) for row in rows for c in commands}
    imports = {(f"{name} import", " ".join(c)) for name in IMPORTED for c in IMPORT_COMMANDS}
    assert runs >= imports
    ill_typed = {f"{name} import" for name in ILL_TYPED_F}
    assert runs >= {(name, " ".join(c)) for name in ill_typed for c in IMPORT_COMMANDS}
    assert all(r["result"][0] == 1 for r in recorded["named"] if r["program"] in ill_typed)
    assert recorded["draws"]["runs"] == len(DRAW_SEEDS) * len(COMMANDS)
    assert recorded["unicode_draws"]["runs"] == len(DRAW_SEEDS) * len(UNICODE_COMMANDS)
    # a few seeds give up; each of the others imports once per command
    assert recorded["f_draws"]["runs"] >= 0.95 * len(F_DRAW_SEEDS) * len(IMPORT_COMMANDS)


if __name__ == "__main__":
    RECORD.write_text(json.dumps(collect(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
