"""Source hygiene: every name a soficlab module imports is used in it, and
every module-level private function or class is referenced somewhere."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "soficlab").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | quoted_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def quoted_names(tree: ast.AST) -> set[str]:
    """Names quoted in annotations, such as "SiteMeasure"."""
    names = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    expr = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a tree loads, reads as attributes, imports by name or quotes."""
    names = quoted_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unreferenced_privates(modules: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_private`` functions and classes that no module
    references outside their own definition."""
    stmts = [(mod, stmt, referenced_names(stmt)) for mod, tree in modules.items() for stmt in tree.body]
    return [
        f"{mod}.{node.name} (line {node.lineno})"
        for mod, node, _ in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for _, stmt, names in stmts if stmt is not node)
    ]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"actions.py", "measures.py", "microstates.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_no_unreferenced_private_helpers():
    modules = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert unreferenced_privates(modules) == []


def test_scan_flags_an_unreferenced_private_helper():
    used = ast.parse(
        "import numpy as np\n\n"
        "def _used(x): return np.asarray(x)\n\n"
        "def _recursive(n): return _recursive(n - 1) if n else 0\n\n"
        "class _Quoted: pass\n\n"
        "def public(x: '_Quoted'): return _used(x)\n"
    )
    other = ast.parse("from .b import _shared\n\ndef __dunder__(): pass\n")
    shared = ast.parse("def _shared(): pass\n")
    assert unreferenced_privates({"a": used, "b": shared, "c": other}) == ["a._recursive (line 5)"]


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "import numpy as np\nfrom typing import Callable, Sequence\n\n"
        "def f(x: 'Sequence[int]'): return np.asarray(x)\n"
    )
    assert unused_imports(tree) == ["Callable (line 2)"]
