import io
import subprocess
import sys

import pytest

from freezeml.cli import (
    EXIT_OK,
    EXIT_TYPE_ERROR,
    EXIT_USAGE,
    CorpusRow,
    load_corpus,
    main,
    run_corpus_row,
)
from freezeml.parser import parse_type, render_type
from freezeml.prelude import PRELUDE_SIGNATURES, build_prelude
from freezeml.syntax import alpha_eq


def run_cli(argv, tmp_path=None):
    out = io.StringIO()
    err = io.StringIO()
    from freezeml.cli import build_arg_parser

    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return (EXIT_USAGE if stop.code not in (0, None) else EXIT_OK), "", ""
    code = args.handler(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestInferCommand:
    def test_success(self, tmp_path):
        path = write(tmp_path, "ex.fml", "poly ~id")
        code, out, err = run_cli(["infer", path])
        assert code == EXIT_OK
        assert out.strip() == "poly ~id : (Int, Bool)"

    def test_type_error(self, tmp_path):
        path = write(tmp_path, "ex.fml", "choose id auto'")
        code, out, err = run_cli(["infer", path])
        assert code == EXIT_TYPE_ERROR
        assert "error" in err

    def test_missing_file(self):
        code, out, err = run_cli(["infer", "/nonexistent/nope.fml"])
        assert code == EXIT_USAGE

    def test_syntax_error_has_position(self, tmp_path):
        path = write(tmp_path, "ex.fml", "let = in")
        code, out, err = run_cli(["infer", path])
        assert code == EXIT_USAGE
        assert ":1:" in err and "error:" in err

    def test_no_prelude(self, tmp_path):
        path = write(tmp_path, "ex.fml", "poly ~id")
        code, _, _ = run_cli(["infer", "--no-prelude", path])
        assert code == EXIT_TYPE_ERROR

    def test_show_elab(self, tmp_path):
        path = write(tmp_path, "ex.fml", "\\(x : Int). x")
        code, out, _ = run_cli(["infer", "--show-elab", path])
        assert code == EXIT_OK
        assert "\\x:Int. x" in out
        # every corpus row the CLI can run (rows with `where` extras need
        # a prelude the CLI cannot build): the same core term as `elaborate`
        for index, row in enumerate(load_corpus()):
            if row.extras:
                continue
            path = write(tmp_path, f"row{index}.fml", row.source)
            code, out, err = run_cli(["infer", "--show-elab", path])
            if row.expected is None:
                assert code == EXIT_TYPE_ERROR, (row.label, out)
                continue
            assert code == EXIT_OK, (row.label, err)
            _, elab_out, _ = run_cli(["elaborate", path])
            assert out.splitlines()[1] == elab_out.splitlines()[0], row.label

    def test_show_elab_infers_once(self, tmp_path, monkeypatch):
        original = sys.modules["freezeml.infer"].infer
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # replace every binding, wherever a freezeml module imported it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "freezeml" and getattr(module, "infer", None) is original:
                monkeypatch.setattr(module, "infer", counting)
        path = write(tmp_path, "ex.fml", "let f = \\x. x in f 1")
        code, out, _ = run_cli(["infer", "--show-elab", path])
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2
        assert len(calls) == 1

    def test_unicode_rendering(self, tmp_path):
        path = write(tmp_path, "ex.fml", "~id")
        code, out, _ = run_cli(["infer", "--unicode", path])
        assert code == EXIT_OK
        assert "∀" in out

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "ex.fml", "let f = \\x. x in (f 1, poly ~f)")
        first = run_cli(["infer", path])
        second = run_cli(["infer", path])
        assert first == second


class TestCheckCommand:
    def test_instance_accepted(self, tmp_path):
        path = write(tmp_path, "ex.fml", "\\x. x")
        code, _, _ = run_cli(["check", path, "--type", "Int -> Int"])
        assert code == EXIT_OK

    def test_generalisation_needs_let(self, tmp_path):
        path = write(tmp_path, "ex.fml", "\\x. x")
        code, _, _ = run_cli(["check", path, "--type", "forall a. a -> a"])
        assert code == EXIT_TYPE_ERROR

    def test_gen_operator_accepted(self, tmp_path):
        path = write(tmp_path, "ex.fml", "$(\\x. x)")
        code, _, _ = run_cli(["check", path, "--type", "forall a. a -> a"])
        assert code == EXIT_OK

    def test_bad_candidate_type_is_usage_error(self, tmp_path):
        path = write(tmp_path, "ex.fml", "\\x. x")
        code, _, _ = run_cli(["check", path, "--type", "Int ->"])
        assert code == EXIT_USAGE


class TestElaborateImport:
    def test_elaborate_frozen_var(self, tmp_path):
        path = write(tmp_path, "ex.fml", "~id")
        code, out, _ = run_cli(["elaborate", path])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "id"
        assert "forall a. a -> a" in out

    def test_elaborate_worked_example(self, tmp_path):
        path = write(tmp_path, "ex.fml", "let app = \\f z. f z in app ~auto ~id")
        code, out, _ = run_cli(["elaborate", path])
        assert code == EXIT_OK
        assert ": forall a. a -> a" in out

    def test_elaborate_type_error(self, tmp_path):
        path = write(tmp_path, "ex.fml", "let f = \\x. x in ~f 42")
        code, _, err = run_cli(["elaborate", path])
        assert code == EXIT_TYPE_ERROR

    def test_elaborate_deep_let_chain(self, tmp_path):
        # the printed F term nests one application per let
        source = "".join(f"let x{i} = \\y. y in " for i in range(1, 201)) + "x200"
        path = write(tmp_path, "ex.fml", source)
        code, out, err = run_cli(["elaborate", path])
        assert code == EXIT_OK, err
        assert out.splitlines()[-1] == ": Int -> Int"

    def test_elaborate_annotation_named_like_prelude_binder(self, tmp_path):
        # the annotation's `a` and the prelude's `forall a` are unrelated
        path = write(tmp_path, "ex.fml", "let (f : forall a. a -> a) = id in f 1")
        code, out, err = run_cli(["elaborate", path])
        assert code == EXIT_OK, err
        assert out.splitlines()[-1] == ": Int"

    def test_import_type_abstraction(self, tmp_path):
        path = write(tmp_path, "ex.f", "/\\a. \\x:a. x")
        code, out, _ = run_cli(["import", path])
        assert code == EXIT_OK
        assert out.strip() == "let (y : forall a. a -> a) = (\\(x : a). ~x)@ in ~y"

    def test_import_ill_typed(self, tmp_path):
        path = write(tmp_path, "ex.f", "/\\a. \\x:a. x x")
        code, _, err = run_cli(["import", path])
        assert code == EXIT_TYPE_ERROR


class TestGolden:
    def test_full_run_passes(self):
        code, out, _ = run_cli(["golden"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[-1].endswith("rows passed")
        assert all(line.startswith("ok") for line in lines[:-1])

    @pytest.mark.parametrize(
        "expected, extra",
        [(None, "forall b. a -> b"), ("a -> a", "a -> a")],
    )
    def test_where_extras_are_checked(self, expected, extra):
        # `a` is bound nowhere, so the extended environment is ill-formed
        row = CorpusRow("extra", "f", expected, (("f", extra),), 1)
        ok, detail = run_corpus_row(row, build_prelude())
        if expected is None:
            assert (ok, detail) == (True, "rejected as expected")
        else:
            assert not ok
            assert detail == "unexpected failure: unbound type variable 'a'"

    def test_rows_loaded(self):
        rows = load_corpus()
        labels = {row.label for row in rows}
        # every section of the figure is represented
        for expected in ("A1", "A8", "B1", "C5", "D3", "E2", "F10", "bad5", "ord4"):
            assert expected in labels
        fails = [row for row in rows if row.expected is None]
        assert {row.label for row in fails} >= {
            "A8", "E1", "E3", "F10", "bad1", "bad2", "bad3", "bad4", "bad5", "bad6",
        }


class TestPreludeFidelity:
    def test_signatures_verbatim(self):
        expected = {
            "head": "forall a. [a] -> a",
            "tail": "forall a. [a] -> [a]",
            "[]": "forall a. [a]",
            "::": "forall a. a -> [a] -> [a]",
            "single": "forall a. a -> [a]",
            "++": "forall a. [a] -> [a] -> [a]",
            "length": "forall a. [a] -> Int",
            "id": "forall a. a -> a",
            "ids": "[forall a. a -> a]",
            "inc": "Int -> Int",
            "choose": "forall a. a -> a -> a",
            "poly": "(forall a. a -> a) -> (Int, Bool)",
            "auto": "(forall a. a -> a) -> (forall a. a -> a)",
            "auto'": "forall b. (forall a. a -> a) -> (b -> b)",
            "map": "forall a b. (a -> b) -> [a] -> [b]",
            "app": "forall a b. (a -> b) -> a -> b",
            "revapp": "forall a b. a -> (a -> b) -> b",
            "runST": "forall a. (forall s. ST s a) -> a",
            "argST": "forall s. ST s Int",
            "pair": "forall a b. a -> b -> (a, b)",
            "pair'": "forall b a. a -> b -> (a, b)",
        }
        table = dict(PRELUDE_SIGNATURES)
        assert table == expected
        gamma = build_prelude()
        for name, source in expected.items():
            assert alpha_eq(gamma.lookup(name), parse_type(source)) and (
                gamma.lookup(name) == parse_type(source)
            )


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write(tmp_path, "ex.fml", "poly ~id")
        proc = subprocess.run(
            [sys.executable, "-m", "freezeml.cli", "infer", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == "poly ~id : (Int, Bool)"
