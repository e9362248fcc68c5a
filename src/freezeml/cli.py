"""Command-line front end.

Commands: ``infer`` (print the principal type), ``check`` (test a term
against a candidate type), ``elaborate`` (print the explicitly typed
core term), ``import`` (read a core term, print its surface encoding),
``golden`` (run the bundled example corpus).  ``elaborate`` and
``infer --show-elab`` print the same core term, from the one
elaboration path :func:`freezeml.translate.elaborate`, which checks it
in System F; a failed check is an internal error.

Every command goes through one front door.  Files are read by
:func:`_read`, and each handler is wrapped by :func:`_front_door`,
which turns an expected failure into one ``PATH[:line:col]: error: ...``
line on standard error and returns its exit code; the handlers
themselves are straight-line read, parse, check and print code.  An
unreadable or non-UTF-8 file, a syntax error and input too large for
memory are usage errors; what counts as a type error depends on the
command.  Any other exception is a fault of the checker: it propagates
out of the handler, and :func:`main` reports it as one internal-error
line.

Exit codes: 0 success, 1 type error, 2 usage/IO/syntax or internal error.
Diagnostics go to standard error, results to standard output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .declcheck import check_typing
from .infer import InferError, check_program
from .parser import (
    SyntaxError_,
    normalize_type_names,
    parse_program,
    parse_type,
    render_term,
    render_type,
)
from .prelude import build_prelude
from .statics import StaticsError, kind_of
from .syntax import KindEnv, Span, TypeEnv, alpha_eq
from .systemf import FTerm, FTypeError, parse_fterm, render_fterm
from .translate import elaborate, from_systemf, readable_fterm

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_USAGE = 2

# Failures of any command that are the input's fault but not type errors.
_USAGE_ERRORS = (OSError, UnicodeDecodeError, SyntaxError_, MemoryError)


def _diag(path: str, span: Optional[Span], message: str) -> str:
    if span is None:
        return f"{path}: error: {message}"
    return f"{path}:{span.line}:{span.col}: error: {message}"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read().removeprefix("\ufeff")


def _message(failure: Exception) -> str:
    if isinstance(failure, UnicodeDecodeError):
        return f"not valid UTF-8: {failure.reason} at byte {failure.start}"
    if isinstance(failure, OSError):
        return failure.strerror or str(failure)
    if isinstance(failure, MemoryError):
        return "input too large for memory"
    return str(failure)


def _front_door(*type_errors: type[Exception]):
    """Wrap a command handler so that each expected failure becomes one
    diagnostic line on `err` and an exit code.

    `type_errors` are the command's type errors (exit 1); the usage
    errors (exit 2) are the same for every command.  The diagnostic
    names the command's file, or ``freezeml`` for a command without one.
    """

    def wrap(handler):
        @functools.wraps(handler)
        def run(args, out, err) -> int:
            try:
                return handler(args, out, err)
            except type_errors as failure:
                caught, code = failure, EXIT_TYPE_ERROR
            except _USAGE_ERRORS as failure:
                caught, code = failure, EXIT_USAGE
            path = getattr(args, "path", "freezeml")
            span = getattr(caught, "span", None)
            print(_diag(path, span, _message(caught)), file=err)
            return code

        return run

    return wrap


def _environment(args) -> TypeEnv:
    if getattr(args, "no_prelude", False):
        return TypeEnv()
    return build_prelude()


def _print_core(elaborated: FTerm, args, out) -> None:
    print(render_fterm(readable_fterm(elaborated), unicode=args.unicode), file=out)


@_front_door(StaticsError, InferError)
def cmd_infer(args, out, err) -> int:
    surface = parse_program(_read(args.path))
    gamma = _environment(args)
    delta = KindEnv()
    result = check_program(delta, gamma, surface)
    # Elaborate before printing, so that a failed self-check prints nothing.
    core = elaborate(delta, gamma, result)[0] if args.show_elab else None
    rendered = render_type(normalize_type_names(result.ty), unicode=args.unicode)
    print(f"{render_term(surface, unicode=args.unicode)} : {rendered}", file=out)
    if core is not None:
        _print_core(core, args, out)
    return EXIT_OK


@_front_door(StaticsError, InferError)
def cmd_check(args, out, err) -> int:
    term = parse_program(_read(args.path))
    try:
        candidate = parse_type(args.type)
        kind_of(KindEnv(), candidate)  # its variables must be bound
    except (SyntaxError_, StaticsError) as failure:
        print(_diag("<type>", failure.span, failure.message), file=err)
        return EXIT_USAGE
    if not check_typing(KindEnv(), _environment(args), term, candidate):
        print(_diag(args.path, None, "term does not have the given type"), file=err)
        return EXIT_TYPE_ERROR
    return EXIT_OK


@_front_door(StaticsError, InferError)
def cmd_elaborate(args, out, err) -> int:
    term = parse_program(_read(args.path))
    gamma = _environment(args)
    delta = KindEnv()
    elaborated, checked = elaborate(delta, gamma, check_program(delta, gamma, term))
    _print_core(elaborated, args, out)
    print(
        f": {render_type(normalize_type_names(checked), unicode=args.unicode)}",
        file=out,
    )
    return EXIT_OK


@_front_door(FTypeError)
def cmd_import(args, out, err) -> int:
    fterm = parse_fterm(_read(args.path))
    # from_systemf checks its input first; an ill-typed term is exit 1.
    encoded = from_systemf(KindEnv(), _environment(args), fterm)
    print(render_term(encoded, unicode=args.unicode), file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Golden corpus
# ---------------------------------------------------------------------------

@dataclass
class CorpusRow:
    label: str
    source: str
    expected: Optional[str]  # None means FAIL
    extras: tuple[tuple[str, str], ...]
    line: int


def load_corpus() -> list[CorpusRow]:
    text = resources.files("freezeml").joinpath("corpus.fml").read_text("utf-8")
    rows: list[CorpusRow] = []
    label = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            label = line.lstrip("# ").split(" (")[0].strip()
            continue
        if "⊢" not in line:
            raise ValueError(f"corpus line {lineno}: missing ⊢")
        source, _, rhs = line.partition("⊢")
        rhs = rhs.strip()
        extras: tuple[tuple[str, str], ...] = ()
        if " where " in rhs:
            rhs, _, extra_text = rhs.partition(" where ")
            rhs = rhs.strip()
            parts = [p.strip() for p in extra_text.split(";") if p.strip()]
            extras = tuple(
                (name.strip(), ty.strip())
                for name, _, ty in (p.partition(":") for p in parts)
            )
        expected = None if rhs == "FAIL" else rhs
        rows.append(CorpusRow(label or f"line {lineno}", source.strip(), expected, extras, lineno))
        label = ""
    return rows


def run_corpus_row(row: CorpusRow, gamma: TypeEnv) -> tuple[bool, str]:
    for name, ty_source in row.extras:
        gamma = gamma.extend(name, parse_type(ty_source))
    try:
        result = check_program(KindEnv(), gamma, parse_program(row.source))
    except (SyntaxError_, StaticsError, InferError) as failure:
        if row.expected is None:
            return True, "rejected as expected"
        return False, f"unexpected failure: {failure}"
    if row.expected is None:
        got = render_type(normalize_type_names(result.ty))
        return False, f"expected failure, inferred {got}"
    expected_ty = parse_type(row.expected)
    got_ty = normalize_type_names(result.ty)
    if alpha_eq(got_ty, expected_ty):
        return True, render_type(got_ty)
    return False, f"expected {render_type(expected_ty)}, got {render_type(got_ty)}"


@_front_door()
def cmd_golden(args, out, err) -> int:
    rows = load_corpus()
    gamma = _environment(args)
    failures = 0
    for row in rows:
        ok, detail = run_corpus_row(row, gamma)
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status:4} {row.label:6} {row.source}  [{detail}]", file=out)
    print(f"{len(rows) - failures}/{len(rows)} rows passed", file=out)
    return EXIT_OK if failures == 0 else EXIT_TYPE_ERROR


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freezeml",
        description="Type inference for first-class polymorphism",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-prelude", action="store_true", help="start from an empty environment")
        rendering = p.add_mutually_exclusive_group()
        rendering.add_argument(
            "--ascii", dest="unicode", action="store_false", default=False,
            help="ASCII rendering (default)",
        )
        rendering.add_argument(
            "--unicode", dest="unicode", action="store_true",
            help="render with unicode symbols",
        )

    p_infer = sub.add_parser("infer", help="infer the type of a program")
    p_infer.add_argument("path")
    p_infer.add_argument(
        "--show-elab", action="store_true", help="also print the elaborated core term"
    )
    common(p_infer)
    p_infer.set_defaults(handler=cmd_infer)

    p_check = sub.add_parser("check", help="check a program against a type")
    p_check.add_argument("path")
    p_check.add_argument("--type", required=True, help="candidate type")
    common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_elab = sub.add_parser("elaborate", help="translate to the explicitly typed core")
    p_elab.add_argument("path")
    common(p_elab)
    p_elab.set_defaults(handler=cmd_elaborate)

    p_import = sub.add_parser("import", help="translate a core term to the surface language")
    p_import.add_argument("path")
    common(p_import)
    p_import.set_defaults(handler=cmd_import)

    p_golden = sub.add_parser("golden", help="run the bundled example corpus")
    common(p_golden)
    p_golden.set_defaults(handler=cmd_golden)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return EXIT_USAGE if exit_.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args, out=sys.stdout, err=sys.stderr)
    except Exception as fault:
        message = f"internal error: {type(fault).__name__}: {fault}"
        print(_diag(getattr(args, "path", "freezeml"), None, message), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
