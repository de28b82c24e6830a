"""Source hygiene: every name a soficlab module imports is used in it."""

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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name quoted in an annotation, such as "SiteMeasure", is used too
    annotations = [
        ann
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if ann is not None
    ]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"actions.py", "measures.py", "microstates.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "import numpy as np\nfrom typing import Callable, Sequence\n\n"
        "def f(x: 'Sequence[int]'): return np.asarray(x)\n"
    )
    assert unused_imports(tree) == ["Callable (line 2)"]
