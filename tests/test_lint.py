"""Lint gate: no unused imports in ``src/`` or ``tests/``.

CI's ``lint`` job runs ruff (rule F401 among others); this is the same
check for unused imports as a test, so it runs wherever the suite runs.
An import counts as used when its bound name appears anywhere in the
file — as a name, the root of an attribute chain, inside a string
annotation, or in ``__all__``.  An import line carrying ``# noqa`` and
every import in an ``__init__.py`` (a re-export) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, string annotations included."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                names |= _annotation_names(ast.parse(child.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    return used


def unused_imports(path: Path) -> list[str]:
    """``"line: name"`` for every import in ``path`` nothing uses."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa" in line for line in statement):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{node.lineno}: {alias.name}")
    return unused


def test_the_checker_finds_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401\n"
        "import os.path as osp\n"
        "from typing import Any, Sequence\n"
        "from collections import (\n"
        "    Counter,  # noqa\n"
        ")\n"
        "from re import match\n"
        "__all__ = ['match']\n"
        "def f(x: 'Sequence[int]') -> Any:\n"
        "    return osp\n",
        encoding="utf-8",
    )
    assert unused_imports(sample) == ["2: os"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in FILES
        if (unused := unused_imports(path))
    }
    assert found == {}
