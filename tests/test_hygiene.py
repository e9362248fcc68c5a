"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freezeml"
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


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
