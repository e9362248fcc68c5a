"""Byte-identity guard for the parsers: each entry point reads what it
read when the record was made.

``tests/parser_record.json`` holds one SHA-256 digest per entry point,
``parse_type``, ``parse_term``, ``parse_program`` and ``parse_fterm``,
over its outcome on the same seeded inputs: strings drawn from the
character pools of the parser fuzz tests, strings drawn from a pool of
System F pieces (``/\\``, ``[`` and ``]`` among them), and every corpus
row and printed ``random_f_term`` draw together with each of its
single-token deletions.  An outcome is the ``repr`` of the tree the
parser built, spans included, or the diagnostic's class, message and
span.  A change meant to keep the parsers' behaviour keeps these
digests.  A change meant to alter it rewrites the record with

    PYTHONPATH=src python tests/test_parser_record.py

and says in CHANGES.md which outcomes changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from freezeml.cli import load_corpus
from freezeml.parser import SyntaxError_, parse_program, parse_term, parse_type, tokenize
from freezeml.prelude import build_prelude
from freezeml.syntax import KindEnv
from freezeml.systemf import parse_fterm, render_fterm

from generators import GiveUp, random_f_term

RECORD = Path(__file__).with_name("parser_record.json")
ENTRY_POINTS = {
    "parse_type": parse_type,
    "parse_term": parse_term,
    "parse_program": parse_program,
    "parse_fterm": parse_fterm,
}
# (seed, pieces, longest draw, draws); the first two are the pools of
# tests/test_parser.py's byte fuzz
POOLS = (
    (99, "()[]\\~$@.,;:+ ->:: forall let in idxy123%'\n\tTrueST", 30, 1500),
    (98, "()[]\\~$@.,;:+ ->:: forall let in idxy123%'\n\t", 40, 1500),
    (
        97,
        ("/\\", "\\", "[", "]", "(", ")", ".", ":", ",", " ", " ", "x", "y", "a",
         "Int", "Bool", "forall", "->", "1", "True", "(+)", "~", "@", "$", "let", "in"),
        16,
        1500,
    ),
)
F_DRAWS = (47, 60)  # seed, draws


def _drawn_texts():
    for seed, pieces, longest, draws in POOLS:
        rng = random.Random(seed)
        for _ in range(draws):
            yield "".join(rng.choice(pieces) for _ in range(rng.randrange(0, longest)))


def _with_deletions(text: str):
    """`text`, then `text` without each of its tokens in turn."""
    yield text
    for tok in tokenize(text)[:-1]:
        yield text[:tok.start] + text[tok.end:]


def _printed_f_terms():
    seed, draws = F_DRAWS
    rng = random.Random(seed)
    prelude = build_prelude()
    for _ in range(draws):
        try:
            term = random_f_term(rng, KindEnv(), prelude, depth=rng.randint(1, 4))
        except GiveUp:
            continue
        yield render_fterm(term)


def inputs() -> list[str]:
    texts = list(_drawn_texts())
    for source in [row.source for row in load_corpus()] + list(_printed_f_terms()):
        texts += _with_deletions(source)
    return texts


def outcome(parse, text: str) -> str:
    """The tree `parse` builds from `text`, or its diagnostic."""
    try:
        return repr(parse(text))
    except SyntaxError_ as err:
        return repr((type(err).__name__, err.message, err.span))


def collect() -> dict:
    texts = inputs()
    record = {}
    for name, parse in ENTRY_POINTS.items():
        digest, accepted = hashlib.sha256(), 0
        for text in texts:
            result = outcome(parse, text)
            accepted += not result.startswith("(")
            digest.update(result.encode("utf-8") + b"\0")
        record[name] = {"inputs": len(texts), "accepted": accepted, "sha256": digest.hexdigest()}
    return record


def test_parsers_read_as_recorded():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert collect() == recorded


def test_record_reads_both_outcomes_at_every_entry_point():
    for name, entry in json.loads(RECORD.read_text(encoding="utf-8")).items():
        assert 0 < entry["accepted"] < entry["inputs"], name


if __name__ == "__main__":
    RECORD.write_text(json.dumps(collect(), indent=1) + "\n", encoding="utf-8")
