"""Source hygiene: every name a module or test file imports is used in
it, no function of the package calls itself other than by yielding its
walk to the trampoline, every top-level function and class of the
package, and every non-dunder method of those classes, has a user other
than a re-export from the package's ``__init__``, and one outside the
tests, no module raises the recursion limit or the thread stack size,
no module applies a ``Subst`` it has just built, only ``subst.py`` names
``Subst``, the CLI elaborates only through ``translate.elaborate``,
every function the traced benchmark wraps still exists, and the
benchmark worker's output hooks see the term of every op that prints
one."""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "freezeml"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as "Subst" name a type without a Name node.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        "b (line 2)",
        "os (line 1)",
    ]


TEST_MODULES = sorted((REPO / "tests").glob("*.py"))


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


STACK_LIMITS = {"setrecursionlimit", "stack_size"}


def stack_limit_uses(source: str) -> list[str]:
    """Uses of sys.setrecursionlimit or threading.stack_size, by attribute
    or by import: deep input must be handled by the code, not the limits."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STACK_LIMITS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name in STACK_LIMITS
            ]
    return found


def test_scan_finds_a_stack_limit_use():
    source = (
        "import sys, threading\n"
        "from sys import setrecursionlimit as raise_it\n"
        "sys.setrecursionlimit(10 ** 6)\n"
        "threading.stack_size(1 << 30)\n"
        "sys.getrecursionlimit()\n"
    )
    assert stack_limit_uses(source) == [
        "setrecursionlimit (line 2)",
        "setrecursionlimit (line 3)",
        "stack_size (line 4)",
    ]


def test_no_stack_limit_changes():
    found = {
        path.name: stack_limit_uses(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


def self_calls(source: str) -> list[str]:
    """Calls by which a function, method or nested function calls itself
    by name: ``f(...)`` in ``f``, and ``self.m(...)`` in a method ``m``.
    A call that is the value of a
    ``yield`` only creates a walk for the trampoline and is not counted;
    nested definitions are scanned on their own."""
    found = []

    def scan(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(calls_of_itself(child, in_class))
            scan(child, isinstance(child, ast.ClassDef))

    def calls_of_itself(fn: ast.AST, method: bool) -> list[str]:
        yielded, hits = set(), []
        todo = list(reversed(fn.body))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Yield):
                yielded.add(id(node.value))
            if isinstance(node, ast.Call) and id(node) not in yielded:
                callee = node.func
                if method:
                    itself = (
                        isinstance(callee, ast.Attribute)
                        and callee.attr == fn.name
                        and getattr(callee.value, "id", None) == "self"
                    )
                else:
                    itself = isinstance(callee, ast.Name) and callee.id == fn.name
                if itself:
                    hits.append(f"{fn.name} (line {node.lineno})")
            todo.extend(reversed(list(ast.iter_child_nodes(node))))
        return hits

    scan(ast.parse(source), False)
    return found


def test_scan_finds_a_self_call():
    source = (
        "def fact(n):\n"
        "    return n * fact(n - 1)\n"
        "def walk(t):\n"
        "    return (yield walk(t.body))\n"
        "def run(t):\n"
        "    return trampoline(run(t))\n"
        "def outer(t):\n"
        "    def inner(u):\n"
        "        return inner(u) + outer(u)\n"
        "class Node(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "    def size(self):\n"
        "        return self.size() + self.child.size()\n"
        "    def get(self, name):\n"
        "        return self.table.get(name)\n"
        "    def depth(self):\n"
        "        return depth(self) + (yield self.child.depth())\n"
    )
    assert self_calls(source) == [
        "fact (line 2)",
        "run (line 6)",
        "inner (line 9)",
        "size (line 14)",
    ]


def test_no_self_calls():
    # Every walk whose depth follows the input's runs under the
    # trampoline: a function that calls itself runs out of Python stack
    # on deep input.
    found = {
        path.name: self_calls(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    assert {name: calls for name, calls in found.items() if calls} == {}


def throwaway_substs(source: str) -> list[str]:
    """Applications of a `Subst` built in the same expression, such as
    ``Subst({a: t}).apply(b)``: a map applied once is a `substitute`
    call, with no `Subst` and no memo to build."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Attribute) and node.attr in ("apply", "apply_env")):
            continue
        built = node.value
        if isinstance(built, ast.Call):
            func = built.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Subst":
                found.append(f"{node.attr} (line {node.lineno})")
    return found


def test_scan_finds_a_throwaway_subst():
    source = (
        "from freezeml import subst\n"
        "a = Subst({'a': t}).apply(b)\n"
        "g = subst.Subst(pairs).apply_env(gamma)\n"
        "s = Subst({'a': t})\n"
        "c = s.apply(b)\n"
        "d = substitute({'a': t}, b)\n"
        "e = make(x).apply(b)\n"
    )
    assert throwaway_substs(source) == ["apply (line 2)", "apply_env (line 3)"]


def test_no_throwaway_substs():
    found = {
        path.name: throwaway_substs(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


ELABORATION_STEPS = {"to_systemf", "ground_derivation", "rebuild_derivation", "f_typecheck"}


def elaboration_steps(source: str) -> list[str]:
    """References to a step of elaboration by name, attribute, import or
    string: a caller that takes the steps one by one forks the path that
    ``translate.elaborate`` checks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in ELABORATION_STEPS:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_scan_finds_an_elaboration_step():
    source = (
        "from freezeml.translate import elaborate, to_systemf\n"
        "from freezeml import systemf\n"
        "checked = systemf.f_typecheck(delta, gamma, t)\n"
        "d = ground_derivation(delta, gamma, result)\n"
        "core, ty = elaborate(delta, gamma, result)\n"
        "step = getattr(translate, 'rebuild_derivation')\n"
    )
    assert elaboration_steps(source) == [
        "to_systemf (line 1)",
        "f_typecheck (line 3)",
        "ground_derivation (line 4)",
        "rebuild_derivation (line 6)",
    ]


def test_cli_elaborates_only_through_translate():
    assert elaboration_steps((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def references(node: ast.AST) -> Counter:
    """Names a subtree refers to: names, attributes, imported names and
    strings (the benchmark looks functions up by name)."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def orphans(package: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions and classes of the `package` modules (name to
    source), and non-dunder methods of those classes, that nothing outside
    their own definition refers to."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    counts = {name: references(tree) for name, tree in trees.items()}
    elsewhere: Counter = Counter()
    for source in others:
        elsewhere.update(references(ast.parse(source)))

    def used(module: str, node: ast.AST) -> bool:
        outside = counts[module][node.name] - references(node)[node.name]
        return outside > 0 or elsewhere[node.name] > 0 or any(
            counts[other][node.name] for other in trees if other != module
        )

    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not used(module, node):
                found.append(f"{module}:{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (
                    isinstance(method, ast.FunctionDef)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and not used(module, method)
                ):
                    found.append(f"{module}:{node.name}.{method.name}")
    return found


def test_scan_finds_an_orphan():
    package = {
        "a.py": (
            "def used(): pass\n"
            "def lonely(n): return lonely(n - 1)\n"
            "class Kept:\n"
            "    def called(self): pass\n"
            "    def alone(self): return self.alone()\n"
            "    def __repr__(self): return ''\n"
        ),
        "b.py": "from a import used\nLAYER = 'Kept'\n",
    }
    assert orphans(package, ["used()\nKept().called()\n"]) == [
        "a.py:lonely",
        "a.py:Kept.alone",
    ]


def test_every_definition_has_a_user():
    # A re-export from __init__ is not a use, so __init__ is left out.
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    others = [
        p.read_text(encoding="utf-8")
        for folder in ("tests", "bench")
        for p in (REPO / folder).glob("*.py")
    ]
    assert orphans(package, others) == []


def test_every_definition_has_a_user_outside_the_tests():
    # Code that only the tests reach is test code and lives with them;
    # the benchmark counts as a user.
    package = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    others = [p.read_text(encoding="utf-8") for p in (REPO / "bench").glob("*.py")]
    # Subst stays in subst.py only because bench/spans.py counts calls of
    # its methods; ROADMAP item 8 moves it to the tests, and this
    # exemption with it.
    found = [o for o in orphans(package, others) if not o.startswith("subst.py:Subst.")]
    assert found == []


def naming(source: str, words: set[str]) -> list[str]:
    """Where `source` names one of `words` as a whole word: in code,
    comments or docstrings alike."""
    return [
        f"{word} (line {line})"
        for line, text in enumerate(source.splitlines(), 1)
        for word in re.findall(r"\w+", text)
        if word in words
    ]


def test_scan_finds_a_name():
    source = (
        "from .subst import Subst, substitute\n"
        "# hands back a Subst.\n"
        "x = substitute(m, a)  # SubstMap is another word\n"
    )
    assert naming(source, {"Subst"}) == ["Subst (line 1)", "Subst (line 2)"]


def test_the_checker_hands_back_plain_dicts():
    # Inference and unification return Θ and θ as dicts: only subst.py
    # names Subst, and the refined kind environment class is gone.
    found = {
        path.name: naming(path.read_text(encoding="utf-8"), {"Subst", "RefinedKindEnv"})
        for path in PACKAGE.glob("*.py")
    }
    found["subst.py"] = [hit for hit in found["subst.py"] if not hit.startswith("Subst ")]
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_submodules_are_reachable_by_attribute():
    # a package attribute named like a submodule would hide the submodule
    import freezeml.infer as infer_module
    import freezeml.unify as unify_module

    assert unify_module.Store is sys.modules["freezeml.unify"].Store
    assert infer_module.check_program is sys.modules["freezeml.infer"].check_program


def test_a_module_loads_only_what_it_imports():
    # the package re-exports nothing, so reading a type pulls in no inference
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(REPO / 'src')!r}]\n"
        "import freezeml.parser\n"
        "print(json.dumps([n for n in sys.modules if n.startswith('freezeml')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "freezeml.parser" in loaded and "freezeml.infer" not in loaded


def test_traced_benchmark_hooks_resolve(tmp_path):
    # bench/spans.py wraps the functions its LAYERS list by module and
    # name, and counts calls of a few methods; a fresh interpreter keeps
    # that patching out of the other tests.
    path = tmp_path / "ex.fml"
    path.write_text("poly ~id", encoding="utf-8")
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(REPO / 'src')!r}, {str(REPO / 'bench')!r}]\n"
        "import freezeml\n"
        "from freezeml.cli import main\n"
        "from spans import Recorder\n"
        "Recorder().install()\n"
        f"sys.exit(main(['infer', {str(path)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "poly ~id : (Int, Bool)\n"


# One op of each benchmark family, run through the worker's Runner the
# way bench/worker.py runs it: the smallest op of each family of the
# corpus and scaling manifests, and one roundtrip op built like those of
# the roundtrip manifest from an F let chain.
WORKER_OPS = """
import json, os, sys, tempfile
sys.path[:0] = ["src", "bench"]
import answers, inputs, worker
from freezeml.systemf import render_fterm

IDENTITY = "forall a. a -> a"
runner = worker.Runner()
with tempfile.TemporaryDirectory() as work:
    ops = inputs.build("corpus", 1, work)["ops"] + inputs.build("scaling", 1, work)["ops"]
    source = os.path.join(work, "f_let_chain_3.f")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(render_fterm(inputs.f_let_chain(3)) + "\\n")
    ops.append({
        "id": "f_let_chain:3", "kind": "roundtrip", "family": "f_let_chain", "n": 3,
        "source": source, "encoding": os.path.join(work, "f_let_chain_3.fml"),
        "expect": {"type": answers.render(answers.canonical(answers.parse_type(IDENTITY)))},
    })
    smallest = {}
    for op in ops:
        if op["n"] < smallest.get(op["family"], {"n": float("inf")})["n"]:
            smallest[op["family"]] = op
    for op in smallest.values():
        result = runner.run(op)
        ok, cause, _ = worker.judge(op, result)
        expects_nodes = op["kind"] == "roundtrip" or bool(op["expect"].get("nodes"))
        nodes = worker._emitted(op, runner, result)
        print(json.dumps([op["family"], op["id"], ok, cause, expects_nodes, nodes]))
"""


def test_benchmark_worker_hooks_count_output_nodes():
    # bench/worker.py replaces cli.render_fterm and cli.render_term to
    # keep the printed term; end_to_end's output_nodes divides by the ops
    # that kept one, so an op expecting nodes must get a count.
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_OPS], capture_output=True, text=True, cwd=REPO, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    families = {run[0] for run in runs}
    assert {"golden", "infer", "elaborate", "check", "list_id", "f_let_chain"} <= families
    for _, op_id, ok, cause, expects_nodes, nodes in runs:
        assert ok, (op_id, cause)
        if expects_nodes:
            assert isinstance(nodes, int) and nodes > 0, op_id
