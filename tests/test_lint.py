"""Lint gate over ``src/`` and ``tests/``, runnable wherever the suite runs.

CI's ``lint`` job runs ruff (``E4``, ``E7``, ``E9``, ``F``); this is the
part of it an ``ast`` walk decides without scope analysis, as a test:

- F401, unused imports.  An import counts as used when its bound name
  appears anywhere in the file — as a name, the root of an attribute
  chain, inside a string annotation, or in ``__all__``.  An import line
  carrying ``# noqa`` and every import in an ``__init__.py`` (a
  re-export) are exempt.
- E401, E711–E714, E721, E722, E731, E741–E743, and every file parses
  (E999).  A line carrying ``# noqa`` or ``# noqa: <code>`` is exempt.

Undefined names (F821) need scope analysis and are not checked here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALL_FILES = sorted(
    path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py")
)
FILES = [path for path in ALL_FILES if path.name != "__init__.py"]


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


# -- pycodestyle errors ruff selects (E4 / E7 / E9) ------------------------------

_AMBIGUOUS = {"l", "O", "I"}
_EQUALITY = (ast.Eq, ast.NotEq)


def _is_type_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
    )


def _compare_codes(node: ast.Compare) -> list[str]:
    codes = []
    operands = [node.left, *node.comparators]
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if not isinstance(op, _EQUALITY):
            continue
        for side in (left, right):
            if isinstance(side, ast.Constant) and side.value is None:
                codes.append("E711")
            elif isinstance(side, ast.Constant) and isinstance(side.value, bool):
                codes.append("E712")
        if _is_type_call(left) or _is_type_call(right):
            codes.append("E721")
    return codes


def _codes(node: ast.AST) -> list[str]:
    """The rule codes ``node`` itself breaks."""
    if isinstance(node, ast.Import) and len(node.names) > 1:
        return ["E401"]
    if isinstance(node, ast.Compare):
        return _compare_codes(node)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and isinstance(node.operand, ast.Compare)
        and len(node.operand.ops) == 1
    ):
        op = node.operand.ops[0]
        if isinstance(op, ast.In):
            return ["E713"]
        return ["E714"] if isinstance(op, ast.Is) else []
    if isinstance(node, ast.ExceptHandler):
        return (["E722"] if node.type is None else []) + (
            ["E741"] if node.name in _AMBIGUOUS else []
        )
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Lambda):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return ["E731"] if all(isinstance(t, ast.Name) for t in targets) else []
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return ["E741"] if node.id in _AMBIGUOUS else []
    if isinstance(node, ast.arg):
        return ["E741"] if node.arg in _AMBIGUOUS else []
    if isinstance(node, ast.ClassDef):
        return ["E742"] if node.name in _AMBIGUOUS else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return ["E743"] if node.name in _AMBIGUOUS else []
    return []


def _suppressed(line: str, code: str) -> bool:
    """Whether ``# noqa`` (bare, or naming ``code``) sits on ``line``."""
    _, marker, rest = line.partition("# noqa")
    if not marker:
        return False
    if not rest.startswith(":"):
        return True
    return code in {part.strip() for part in rest[1:].split("#")[0].split(",")}


def pycodestyle_errors(path: Path) -> list[str]:
    """``"line: code"`` for every E4/E7/E9 error in ``path``."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [f"{error.lineno}: E999"]
    lines = source.splitlines()
    return [
        f"{node.lineno}: {code}"
        for node in ast.walk(tree)
        for code in _codes(node)
        if not _suppressed(lines[node.lineno - 1], code)
    ]


def test_the_style_checker_finds_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os, sys\n"
        "a = os == None\n"
        "b = sys != True\n"
        "c = not a in b\n"
        "d = not a is b\n"
        "e = type(a) == type(b)\n"
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "f = lambda: 0\n"
        "l = 1\n"
        "class I: pass\n"
        "def O(): pass\n"
        "g = lambda: 0  # noqa: E731\n"
        "h = a == None  # noqa\n"
        "k = a is None or a not in b or type(a) is int or [i for i in b]\n"
        "m = lambda: 0  # noqa: E711\n",
        encoding="utf-8",
    )
    assert sorted(pycodestyle_errors(sample), key=lambda found: int(found.split(":")[0])) == [
        "1: E401", "2: E711", "3: E712", "4: E713", "5: E714", "6: E721",
        "9: E722", "11: E731", "12: E741", "13: E742", "14: E743", "18: E731",
    ]  # fmt: skip
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    assert pycodestyle_errors(broken) == ["1: E999"]


def test_no_pycodestyle_errors():
    found = {
        str(path.relative_to(ROOT)): errors
        for path in ALL_FILES
        if (errors := pycodestyle_errors(path))
    }
    assert found == {}
