"""Command-line front end.

Commands: ``infer`` (print the principal type), ``check`` (test a term
against a candidate type), ``elaborate`` (print the explicitly typed
core term), ``import`` (read a core term, print its surface encoding),
``golden`` (run the bundled example corpus).

Exit codes: 0 success, 1 type error, 2 usage/IO/syntax error.
Diagnostics go to standard error, results to standard output.
"""

from __future__ import annotations

import argparse
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
from .statics import StaticsError
from .syntax import KindEnv, Span, Term, TypeEnv, alpha_eq
from .systemf import FTypeError, f_typecheck, parse_fterm, render_fterm
from .translate import (
    from_systemf,
    ground_derivation,
    rebuild_derivation,
    to_systemf,
)

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_USAGE = 2


def _diag(path: str, span: Optional[Span], message: str) -> str:
    if span is None:
        return f"{path}: error: {message}"
    return f"{path}:{span.line}:{span.col}: error: {message}"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _environment(args) -> TypeEnv:
    if getattr(args, "no_prelude", False):
        return TypeEnv()
    return build_prelude()


def _load_term(path: str, out) -> Optional[Term]:
    """Parse a program file; returns the surface term, or None."""
    try:
        source = _read(path)
    except OSError as err:
        print(f"{path}: error: {err.strerror or err}", file=out)
        return None
    try:
        surface = parse_program(source)
    except SyntaxError_ as err:
        print(_diag(path, err.span, err.message), file=out)
        return None
    return surface


def cmd_infer(args, out=sys.stdout, err=sys.stderr) -> int:
    surface = _load_term(args.path, err)
    if surface is None:
        return EXIT_USAGE
    gamma = _environment(args)
    delta = KindEnv()
    try:
        result = check_program(delta, gamma, surface)
    except (StaticsError, InferError) as failure:
        span = getattr(failure, "span", None)
        print(_diag(args.path, span, str(failure)), file=err)
        return EXIT_TYPE_ERROR
    rendered = render_type(
        normalize_type_names(result.ty), normalize=False, unicode=args.unicode
    )
    print(f"{render_term(surface, unicode=args.unicode)} : {rendered}", file=out)
    if args.show_elab:
        derivation = ground_derivation(delta, gamma, result)
        print(render_fterm(to_systemf(derivation), unicode=args.unicode), file=out)
    return EXIT_OK


def cmd_check(args, out=sys.stdout, err=sys.stderr) -> int:
    term = _load_term(args.path, err)
    if term is None:
        return EXIT_USAGE
    try:
        candidate = parse_type(args.type)
    except SyntaxError_ as failure:
        print(_diag("<type>", failure.span, failure.message), file=err)
        return EXIT_USAGE
    gamma = _environment(args)
    try:
        accepted = check_typing(KindEnv(), gamma, term, candidate)
    except StaticsError as failure:
        print(_diag(args.path, failure.span, str(failure)), file=err)
        return EXIT_TYPE_ERROR
    if not accepted:
        print(
            _diag(args.path, None, "term does not have the given type"), file=err
        )
        return EXIT_TYPE_ERROR
    return EXIT_OK


def cmd_elaborate(args, out=sys.stdout, err=sys.stderr) -> int:
    term = _load_term(args.path, err)
    if term is None:
        return EXIT_USAGE
    gamma = _environment(args)
    delta = KindEnv()
    try:
        derivation = rebuild_derivation(delta, gamma, term)
    except (StaticsError, InferError) as failure:
        span = getattr(failure, "span", None)
        print(_diag(args.path, span, str(failure)), file=err)
        return EXIT_TYPE_ERROR
    elaborated = to_systemf(derivation)
    checked = f_typecheck(delta, gamma, elaborated)
    print(render_fterm(elaborated, unicode=args.unicode), file=out)
    print(
        f": {render_type(checked, normalize=False, unicode=args.unicode)}",
        file=out,
    )
    return EXIT_OK


def cmd_import(args, out=sys.stdout, err=sys.stderr) -> int:
    try:
        source = _read(args.path)
    except OSError as failure:
        print(f"{args.path}: error: {failure.strerror or failure}", file=err)
        return EXIT_USAGE
    try:
        fterm = parse_fterm(source)
    except SyntaxError_ as failure:
        print(_diag(args.path, failure.span, failure.message), file=err)
        return EXIT_USAGE
    gamma = _environment(args)
    delta = KindEnv()
    try:
        f_typecheck(delta, gamma, fterm)
    except FTypeError as failure:
        print(_diag(args.path, None, str(failure)), file=err)
        return EXIT_TYPE_ERROR
    encoded = from_systemf(delta, gamma, fterm)
    print(render_term(_readable(encoded), unicode=args.unicode), file=out)
    return EXIT_OK


def _readable(term: Term) -> Term:
    """Rename surviving internal term variables for display."""
    from .syntax import (
        App,
        Freeze,
        Lam,
        LamAnn,
        Let,
        LetAnn,
        Lit,
        Var,
        is_internal_name,
        term_names,
    )

    taken = {n for n in term_names(term) if not is_internal_name(n)}
    mapping: dict[str, str] = {}

    def display(name: str) -> str:
        if not is_internal_name(name):
            return name
        if name not in mapping:
            base = "xyzuvw"
            i = len(mapping)
            candidate = base[i % 6] if i < 6 else f"x{i}"
            while candidate in taken:
                i += 1
                candidate = base[i % 6] if i < 6 else f"x{i}"
            taken.add(candidate)
            mapping[name] = candidate
        return mapping[name]

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(display(t.name))
        if isinstance(t, Freeze):
            return Freeze(display(t.name))
        if isinstance(t, Lit):
            return t
        if isinstance(t, Lam):
            return Lam(display(t.var), walk(t.body))
        if isinstance(t, LamAnn):
            return LamAnn(display(t.var), t.ann, walk(t.body))
        if isinstance(t, App):
            return App(walk(t.fn), walk(t.arg))
        if isinstance(t, Let):
            # Internal instantiation lets keep their internal binder so the
            # printer can fold them back into the `@` sugar.
            if isinstance(t.body, (Var, Freeze)) and t.body.name == t.var:
                return Let(t.var, walk(t.bound), t.body)
            return Let(display(t.var), walk(t.bound), walk(t.body))
        if isinstance(t, LetAnn):
            return LetAnn(display(t.var), t.ann, walk(t.bound), walk(t.body))
        raise TypeError(f"unexpected term: {t!r}")

    return walk(term)


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


def load_corpus(text: Optional[str] = None) -> list[CorpusRow]:
    if text is None:
        text = (
            resources.files("freezeml").joinpath("corpus.fml").read_text("utf-8")
        )
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
        got = render_type(normalize_type_names(result.ty), normalize=False)
        return False, f"expected failure, inferred {got}"
    expected_ty = parse_type(row.expected)
    got_ty = normalize_type_names(result.ty)
    if alpha_eq(got_ty, expected_ty):
        return True, render_type(got_ty, normalize=False)
    return False, (
        f"expected {render_type(expected_ty, normalize=False)}, "
        f"got {render_type(got_ty, normalize=False)}"
    )


def cmd_golden(args, out=sys.stdout, err=sys.stderr) -> int:
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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
