import codecs
import contextlib
import io
import subprocess
import sys
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from freezeml import cli, translate
from freezeml.cli import (
    EXIT_OK,
    EXIT_TYPE_ERROR,
    EXIT_USAGE,
    CorpusRow,
    load_corpus,
    main,
    run_corpus_row,
)
from freezeml.parser import display_type_names, parse_type
from freezeml.prelude import EXTRA_SIGNATURES, PRELUDE_SIGNATURES, build_prelude
from freezeml.syntax import TVar, TypeEnv, alpha_eq, ftv_ordered
from freezeml.systemf import FApp, FLam, FLit, FTyAbs, FTypeError, FVar, f_let, render_fterm


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


class TestApplicationDiagnostics:
    """An application whose function type is a known arrow unifies only
    its domain with the argument; any other function type is unified
    with `argument -> fresh`.  Either way the diagnostic names the same
    two types as unifying the whole arrow did."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            # the domain of a known arrow against the argument
            ("(\\x. x + 1) True", "1:3: error: cannot unify Int with Bool: Int vs Bool"),
            # a head that is not an arrow
            ("1 2", "1:1: error: cannot unify Int with ->: Int vs Int -> a"),
            ("poly ~id id", "1:1: error: cannot unify Pair with ->: (Int, Bool) vs (a -> a) -> b"),
            # a quantified head
            (
                "~id 1",
                "1:1: error: cannot unify a quantified type with an unquantified one: "
                "forall a. a -> a vs Int -> b",
            ),
            # a flexible head that the argument's arrow would contain
            ("\\f. f f", "1:5: error: a variable occurs in its own solution: a vs a -> b"),
            # a known arrow whose domain was solved by an earlier argument
            (
                "choose id ~id",
                "1:1: error: cannot unify a quantified type with an unquantified one: "
                "b -> b vs forall a. a -> a",
            ),
            # the value restriction: `id id` is not a value, so `f` stays monomorphic
            ("let f = id id in (f 1, f True)", "1:24: error: cannot unify Int with Bool: Int vs Bool"),
        ],
    )
    def test_infer_stderr(self, tmp_path, source, expected):
        path = write(tmp_path, "ex.fml", source)
        assert run_cli(["infer", path]) == (EXIT_TYPE_ERROR, "", f"{path}:{expected}\n")


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

    def test_unbound_candidate_variable_blames_the_type(self, tmp_path):
        path = write(tmp_path, "ex.fml", "\\x. x")
        code, out, err = run_cli(["check", path, "--type", "a -> a"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "<type>: error: unbound type variable 'a'\n"


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

    def test_shadowing_annotation_elaborates_and_imports_back(self, tmp_path):
        # the inner `a` shadows the outer one: both echoes must print the
        # two quantifiers apart, since `forall a a.` does not parse
        source = "\\(x : forall a. forall a. a -> a). x"
        path = write(tmp_path, "ex.fml", source)
        code, out, err = run_cli(["infer", path])
        assert code == EXIT_OK, err
        assert out.startswith(source + " : ")
        code, out, err = run_cli(["elaborate", path])
        assert code == EXIT_OK, err
        fterm, type_line = out.splitlines()
        assert type_line == ": (forall a. forall a. a -> a) -> Int -> Int"
        code, encoding, err = run_cli(["import", write(tmp_path, "ex.f", fterm)])
        assert code == EXIT_OK, err
        code, _, err = run_cli(["infer", write(tmp_path, "enc.fml", encoding)])
        assert code == EXIT_OK, err

    def test_import_type_abstraction(self, tmp_path):
        path = write(tmp_path, "ex.f", "/\\a. \\x:a. x")
        code, out, _ = run_cli(["import", path])
        assert code == EXIT_OK
        assert out.strip() == "let (y : forall a. a -> a) = (\\(x : a). ~x)@ in ~y"

    def test_import_ill_typed(self, tmp_path):
        path = write(tmp_path, "ex.f", "/\\a. \\x:a. x x")
        code, _, err = run_cli(["import", path])
        assert code == EXIT_TYPE_ERROR


ACCEPTED_ROWS = [row for row in load_corpus() if row.expected is not None]


class TestElaborationRoundTrip:
    @pytest.mark.parametrize("row", ACCEPTED_ROWS, ids=[row.label for row in ACCEPTED_ROWS])
    def test_elaboration_imports_back(self, tmp_path, monkeypatch, row):
        # `elaborate` prints only user-writable names, `import` reads its
        # F term back, and the encoding infers the type it printed
        gamma = build_prelude()
        for name, source in row.extras:
            gamma = gamma.extend(name, parse_type(source))
        monkeypatch.setattr(cli, "build_prelude", lambda: gamma)
        code, out, err = run_cli(["elaborate", write(tmp_path, "row.fml", row.source)])
        assert code == EXIT_OK, err
        assert "%" not in out
        fterm, type_line = out.splitlines()
        code, encoding, err = run_cli(["import", write(tmp_path, "row.f", fterm)])
        assert code == EXIT_OK, err
        code, inferred, err = run_cli(["infer", write(tmp_path, "enc.fml", encoding)])
        assert code == EXIT_OK, err
        got = parse_type(inferred.rsplit(" : ", 1)[1])
        assert alpha_eq(got, parse_type(type_line.removeprefix(": ")))


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

    @pytest.mark.parametrize(
        "expected, detail",
        [("Bool", "expected Bool, got Int"), (None, "expected failure, inferred Int")],
        ids=["wrong type", "accepted FAIL row"],
    )
    def test_a_row_the_checker_disagrees_with_fails(self, expected, detail):
        row = CorpusRow("wrong", "id 1", expected, (), 1)
        assert run_corpus_row(row, build_prelude()) == (False, detail)

    def test_a_disagreeing_row_fails_the_run(self, monkeypatch):
        rows = load_corpus()
        wrong = CorpusRow("wrong", "id 1", "Bool", (), 1)
        monkeypatch.setattr(cli, "load_corpus", lambda: [*rows, wrong])
        code, out, _ = run_cli(["golden"])
        assert code == EXIT_TYPE_ERROR
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL wrong  id 1  [expected Bool, got Int]"
        ]
        assert lines[-1] == f"{len(rows)}/{len(rows) + 1} rows passed"

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
    def test_main_writes_to_the_current_streams(self, tmp_path):
        good = write(tmp_path, "good.fml", "poly ~id")
        bad = write(tmp_path, "bad.fml", "choose id auto'")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["infer", good]) == EXIT_OK
            assert main(["infer", bad]) == EXIT_TYPE_ERROR
        assert out.getvalue() == "poly ~id : (Int, Bool)\n"
        assert err.getvalue().startswith(f"{bad}:1:")

    @pytest.mark.parametrize("argv, code", [(["bogus"], EXIT_USAGE), (["--help"], EXIT_OK)])
    def test_argparse_exits_become_exit_codes(self, capsys, argv, code):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert ("usage: freezeml" in err) == (code == EXIT_USAGE)
        assert ("usage: freezeml" in out) == (code == EXIT_OK)

    def test_module_invocation(self, tmp_path):
        path = write(tmp_path, "ex.fml", "poly ~id")
        proc = subprocess.run(
            [sys.executable, "-m", "freezeml.cli", "infer", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == "poly ~id : (Int, Bool)"

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("(" * 10_000 + "1" + ")" * 10_000, "1 : Int\n"),
            (
                "".join(f"x{i} = {i};\n" for i in range(10_000)) + "x9999",
                "".join(f"let x{i} = {i} in " for i in range(10_000)) + "x9999 : Int\n",
            ),
        ],
        ids=["nested_parens_10000", "declarations_10000"],
    )
    def test_deep_input_is_accepted(self, tmp_path, source, expected):
        # nesting is bounded by memory, not by the interpreter's stack
        path = write(tmp_path, "deep.fml", source)
        proc = subprocess.run(
            [sys.executable, "-m", "freezeml.cli", "infer", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, expected, "")

    # The size families of the benchmark notes at n = 4000, each in a
    # fresh interpreter at the default recursion limit: the program, the
    # type `infer` prints, and the type `elaborate` prints, where it runs.
    N = 4000
    FAMILIES = {
        "declarations": (
            "".join(f"d{i} = \\x. x;\n" for i in range(N)) + f"d{N - 1}",
            "a -> a",
            "Int -> Int",
        ),
        "value_restricted_lets": (
            "".join(f"let x{i} = id id in " for i in range(N)) + "x0",
            "a -> a",
            None,
        ),
        "lets": (
            "".join(f"let x{i} = \\y. y in " for i in range(N)) + f"x{N - 1}",
            "a -> a",
            None,
        ),
        "lambdas": (
            "".join(f"\\x{i}. " for i in range(N)) + "x0 1",
            "(Int -> a) -> " + " -> ".join(islice(display_type_names({"a"}), N - 1)) + " -> a",
            " -> ".join(["(Int -> Int)"] + ["Int"] * N),
        ),
        "sum": (" + ".join(["1"] * N), "Int", "Int"),
        "list": ("[" + ", ".join(["id"] * N) + "]", "[a -> a]", None),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deep_families(self, tmp_path, family):
        source, inferred, elaborated = self.FAMILIES[family]
        path = write(tmp_path, "deep.fml", source)
        for command, expected in (("infer", inferred), ("elaborate", elaborated)):
            if expected is None:
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "freezeml.cli", command, str(path)],
                capture_output=True,
                text=True,
            )
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), command
            assert proc.stdout.splitlines()[-1].endswith(f": {expected}"), command

    def test_deep_import(self, tmp_path):
        # let x1 : forall a. a -> a = /\\a. \\y:a. y in ... in x4000
        ident = FTyAbs("a", FLam("y", TVar("a"), FVar("y")))
        body = FVar(f"x{self.N}")
        for i in range(self.N, 0, -1):
            body = f_let(f"x{i}", parse_type("forall a. a -> a"), ident, body)
        path = write(tmp_path, "deep.f", render_fterm(body))
        proc = subprocess.run(
            [sys.executable, "-m", "freezeml.cli", "import", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        # each let binds its abstraction through one annotated let of its own
        assert proc.stdout.startswith("let (x1 : forall a. a -> a) = let (")
        assert proc.stdout.count(" : forall a. a -> a) = (\\(y : a). ~y)@ in ~") == self.N
        assert proc.stdout.endswith(f" in ~x{self.N}\n")


def _undecodable(tmp_path):
    path = tmp_path / "bad.fml"
    path.write_bytes(b"\xff\xfe1")
    return str(path)


FAILURE_INPUTS = {
    "undecodable": _undecodable,
    "superscript_digit": lambda tmp_path: write(tmp_path, "sup.fml", "1²"),
    "missing": lambda tmp_path: str(tmp_path / "missing.fml"),
    "directory": lambda tmp_path: str(tmp_path),
}
COMMANDS = {
    "infer": ["infer"],
    "check": ["check", "--type", "Int"],
    "elaborate": ["elaborate"],
    "import": ["import"],
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFrontDoor:
    @pytest.mark.parametrize("entry", [run_cli, run_main], ids=["handler", "main"])
    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    @pytest.mark.parametrize("make", FAILURE_INPUTS.values(), ids=FAILURE_INPUTS.keys())
    def test_unusable_input_is_a_usage_error(self, tmp_path, entry, command, make):
        path = make(tmp_path)
        code, out, err = entry([command[0], path, *command[1:]])
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{path}:")

    def test_deep_input_is_accepted_in_process(self, tmp_path):
        source = "".join(f"x{i} = {i};\n" for i in range(10_000)) + "x9999"
        code, out, err = run_cli(["infer", write(tmp_path, "deep.fml", source)])
        assert (code, err) == (EXIT_OK, "")
        assert out == "".join(f"let x{i} = {i} in " for i in range(10_000)) + "x9999 : Int\n"

    def test_elaboration_self_check_is_not_a_type_error(self, tmp_path, monkeypatch):
        # an ill-typed elaboration is a fault of the checker: it must not
        # be reported as the program's type error (exit 1)
        monkeypatch.setattr(translate, "to_systemf", lambda derivation: FApp(FLit(1), FLit(2)))
        with pytest.raises(FTypeError):
            run_cli(["elaborate", write(tmp_path, "ex.fml", "1")])

    def test_internal_error_is_one_line_through_main(self, tmp_path, monkeypatch):
        # A forced self-check failure is a fault of the checker, which
        # main reports without a traceback.
        monkeypatch.setattr(translate, "to_systemf", lambda derivation: FApp(FLit(1), FLit(2)))
        path = write(tmp_path, "ex.fml", "let x = id@ in x")
        code, out, err = run_main(["elaborate", path])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"{path}: error: internal error: NotAFunction: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("entry", [run_cli, run_main], ids=["handler", "main"])
    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    def test_memory_error_is_a_usage_error(self, tmp_path, monkeypatch, entry, command):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "_read", exhausted)
        path = write(tmp_path, "ex.fml", "1")
        code, out, err = entry([command[0], path, *command[1:]])
        assert (code, out, err) == (EXIT_USAGE, "", f"{path}: error: input too large for memory\n")

    def test_memory_error_while_elaborating_is_a_usage_error(self, tmp_path, monkeypatch):
        def exhausted(derivation):
            raise MemoryError

        monkeypatch.setattr(translate, "to_systemf", exhausted)
        path = write(tmp_path, "ex.fml", "id 1")
        code, out, err = run_main(["elaborate", path])
        assert (code, out, err) == (EXIT_USAGE, "", f"{path}: error: input too large for memory\n")

    def test_show_elab_self_check_prints_no_type_line(self, tmp_path, monkeypatch):
        # `infer --show-elab` elaborates before it prints, so a failed
        # self-check leaves standard output empty
        monkeypatch.setattr(translate, "to_systemf", lambda derivation: FApp(FLit(1), FLit(2)))
        path = write(tmp_path, "ex.fml", "1")
        code, out, err = run_main(["infer", "--show-elab", path])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"{path}: error: internal error: NotAFunction: ")
        assert len(err.splitlines()) == 1


class TestGeneralisedLetOfLet:
    """`id@@` binds a let whose bound term is a let: its elaboration puts
    a value redex under a type abstraction, which the core accepts."""

    @pytest.mark.parametrize("source", ["id@@", "let x = id@ in x"])
    def test_show_elab_and_elaborate_agree(self, tmp_path, source):
        path = write(tmp_path, "ex.fml", source)
        code, shown, err = run_cli(["infer", "--show-elab", path])
        assert code == EXIT_OK, err
        code, elaborated, err = run_cli(["elaborate", path])
        assert code == EXIT_OK, err
        assert shown.splitlines()[1] == elaborated.splitlines()[0]
        assert elaborated.splitlines()[1] == ": Int -> Int"

    def test_imports_back(self, tmp_path):
        code, elaborated, err = run_cli(["elaborate", write(tmp_path, "ex.fml", "id@@")])
        assert code == EXIT_OK, err
        assert elaborated.splitlines()[0] == (
            "(\\x:forall a. a -> a. x [Int]) "
            "(/\\a. (\\y:forall b. b -> b. y [a]) (/\\b. id [b]))"
        )
        fterm = write(tmp_path, "ex.f", elaborated.splitlines()[0])
        code, encoding, err = run_cli(["import", fterm])
        assert code == EXIT_OK, err
        code, inferred, err = run_cli(["infer", write(tmp_path, "enc.fml", encoding)])
        assert code == EXIT_OK, err
        assert inferred.endswith(": Int -> Int\n")


# Tokens of the surface and the core grammar, some glued into phrases so
# that some of the drawn texts parse and check, and the lexer's edge
# cases: numerics that are not decimal, a non-ASCII digit and letter, an
# internal name, a comment, and characters that are not tokens.
TOKENS = (
    "\\x.", "\\x:Int.", "\\x:a.", "\\(x : forall a. a -> a).", "/\\a.", "x", "~x",
    "id", "~id", "auto", "poly", "choose", "1", "True", "(", ")", "[Int]", "[a]",
    "[", "]", "@", "$", ",", "::", "+", "let x =", "let (x : forall a. a -> a) =", "in",
    "x²", "Ⅻ", "١", "é", "%x", "'", "# c\n", "\ufeff", "\u2028",
)


class TestEveryInputGetsAVerdict:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=14).map(" ".join))
    @example("~id @ @")  # a let of a let under generalisation
    @example("(" * 10_000 + "1" + ")" * 10_000)  # deep nesting is accepted
    @example("(" * 10_000 + "1")  # and a syntax error as deep
    def test_commands_return_an_exit_code(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("verdict") / "input.txt"
        path.write_text(text, encoding="utf-8")
        for command in (
            ["infer"], ["infer", "--show-elab"], ["elaborate"],
            ["check", "--type", "Int"], ["import"],
        ):
            code, _, err = run_cli([command[0], str(path), *command[1:]])
            assert code in (EXIT_OK, EXIT_TYPE_ERROR, EXIT_USAGE)
            assert err.count("\n") == (0 if code == EXIT_OK else 1), err
            assert "Traceback" not in err


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is dropped; one
    anywhere else is an unexpected character."""

    SOURCES = {"infer": "id 1", "check": "id 1", "elaborate": "id 1", "import": "id [Int] 1"}

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    def test_leading_mark_is_dropped(self, tmp_path, command):
        source = self.SOURCES[command[0]]
        plain = write(tmp_path, "plain.fml", source)
        marked = tmp_path / "marked.fml"
        marked.write_bytes(codecs.BOM_UTF8 + source.encode("utf-8"))
        expected = run_cli([command[0], plain, *command[1:]])
        assert expected[0] == EXIT_OK
        assert run_cli([command[0], str(marked), *command[1:]]) == expected

    @pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
    @pytest.mark.parametrize(
        "source, position",
        [("id\ufeff 1", "1:3"), ("\ufeff\ufeffid 1", "1:1"), ("\ufeffid\n\ufeff1", "2:1")],
    )
    def test_mark_elsewhere_is_unexpected(self, tmp_path, command, source, position):
        path = write(tmp_path, "marked.fml", source)
        code, out, err = run_cli([command[0], path, *command[1:]])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"{path}:{position}: error: unexpected character '\\ufeff'\n"

    def test_decoding_error_counts_bytes_from_the_mark(self, tmp_path):
        path = tmp_path / "marked.fml"
        path.write_bytes(codecs.BOM_UTF8 + b"id \xff")
        code, _, err = run_cli(["infer", str(path)])
        assert code == EXIT_USAGE
        assert err == f"{path}: error: not valid UTF-8: invalid start byte at byte 6\n"


class TestSharedPrelude:
    """`build_prelude` builds one environment per process; no command may
    change it, or the free-variable caches its types carry."""

    def test_commands_leave_the_prelude_pristine(self, tmp_path):
        for index, row in enumerate(load_corpus()):
            if row.extras:
                ok, detail = run_corpus_row(row, build_prelude())
                assert ok, (row.label, detail)
                continue
            path = write(tmp_path, f"row{index}.fml", row.source)
            run_main(["infer", "--show-elab", path])
            code, out, _ = run_main(["elaborate", path])
            if code == EXIT_OK:
                run_main(["import", write(tmp_path, f"row{index}.f", out.splitlines()[0])])
            run_main(["check", path, "--type", row.expected or "Int"])
        assert run_main(["golden"])[0] == EXIT_OK
        for source, ty in (("let id = 1 in id", "Int"), ("\\(id : Int). id", "Int -> Int")):
            code, out, _ = run_main(["infer", write(tmp_path, "shadow.fml", source)])
            assert (code, out.rsplit(" : ", 1)[1]) == (EXIT_OK, f"{ty}\n"), source

        shared = build_prelude()
        assert shared is build_prelude()
        fresh = TypeEnv(
            (name, parse_type(source))
            for name, source in PRELUDE_SIGNATURES + EXTRA_SIGNATURES
        )
        assert list(shared) == list(fresh)
        extras = {name for row in load_corpus() for name, _ in row.extras}
        assert extras and not extras & {name for name, _ in shared}
        for (_, ty), (_, parsed) in zip(shared, fresh):
            assert list(ftv_ordered(ty)) == list(ftv_ordered(parsed))

    def test_no_prelude_ignores_the_shared_prelude(self, tmp_path):
        path = write(tmp_path, "id.fml", "id")
        bare, full = ["infer", "--no-prelude", path], ["infer", path]
        bare_first = [run_main(bare), run_main(full)]
        full_first = [run_main(full), run_main(bare)]
        assert bare_first == full_first[::-1]
        code, out, err = bare_first[0]
        assert (code, out) == (EXIT_TYPE_ERROR, "")
        assert "unbound variable 'id'" in err
        assert bare_first[1] == (EXIT_OK, "id : a -> a\n", "")


def test_commands_never_copy_or_search_the_environment(tmp_path, monkeypatch):
    """Inference, replay, the F checker and the importer each keep Γ in
    one scoped map per call: on every corpus row the CLI can run, the
    commands call neither `TypeEnv.extend` nor `TypeEnv.lookup`.  The
    golden command is left out, since a row's `where` extras extend the
    prelude by design."""
    calls = {"extend": 0, "lookup": 0}
    for name in calls:
        original = getattr(TypeEnv, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(TypeEnv, name, counting)
    runs = 0
    for index, row in enumerate(load_corpus()):
        if row.extras:
            continue
        path = write(tmp_path, f"row{index}.fml", row.source)
        run_cli(["infer", "--show-elab", path])
        run_cli(["check", path, "--type", row.expected or "Int"])
        runs += 2
        if row.expected is None:
            continue
        code, out, _ = run_cli(["elaborate", path])
        assert code == EXIT_OK, row.label
        code, _, _ = run_cli(["import", write(tmp_path, f"row{index}.f", out.splitlines()[0])])
        assert code == EXIT_OK, row.label
        runs += 2
    assert runs > 100, runs
    assert calls == {"extend": 0, "lookup": 0}
