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
- F541 (f-string without placeholders), F822 (undefined name in
  ``__all__``) and F841 (local assigned, never read), with the same
  ``# noqa`` rule.

- F821 (undefined name) over ``src/``, ``tests/`` and ``benchmarks/``:
  the stdlib ``symtable`` resolves every scope — function, class, lambda,
  comprehension — and a name any of them reads as a global must be bound
  at module level or be a builtin.  Names inside string annotations are
  not resolved.
"""

from __future__ import annotations

import ast
import builtins
import re
import symtable
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


# -- pyflakes rules an ``ast`` walk decides (F541 / F822 / F841) ------------------

#: ruff's default ``dummy-variable-rgx``: underscore names are meant to go unread.
_DUMMY = re.compile(r"^(_+|(_+[a-zA-Z0-9_]*[a-zA-Z0-9]+?))$")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(node: ast.AST):
    """``node``'s descendants, not descending into nested scopes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_scope(child)


def _placeholderless_fstrings(tree: ast.AST) -> list[ast.JoinedStr]:
    """F541: f-strings with nothing to format (format specs are not f-strings)."""
    specs = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(value, ast.FormattedValue) for value in node.values)
    ]


def _bound_names(node: ast.AST) -> set[str]:
    """Names a statement binds in its own scope."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    if isinstance(node, ast.ExceptHandler) and node.name:
        return {node.name}
    return set()


def _undefined_exports(tree: ast.Module) -> list[tuple[int, str]]:
    """F822: ``__all__`` entries the module never binds."""
    module = list(_own_scope(tree))
    if any(
        isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
        for node in module
    ):
        return []
    bound = set().union(*(_bound_names(node) for node in module))
    exported = [
        (node.lineno, element.value)
        for node in module
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
        and isinstance(node.value, (ast.List, ast.Tuple))
        for element in node.value.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]
    return [(line, name) for line, name in exported if name not in bound]


def _unused_locals(tree: ast.AST) -> list[tuple[int, str]]:
    """F841: a function's local, bound by ``=`` or ``except ... as``, never read.

    Reads anywhere in the function count, nested functions included, and an
    augmented assignment or ``del`` counts as a read; tuple unpacking,
    ``global`` / ``nonlocal`` names and underscore names are exempt, and a
    function that calls ``locals()`` is skipped.
    """
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(function))
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "locals"
            for node in nodes
        ):
            continue
        read = {
            node.id
            for node in nodes
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        read |= {
            node.target.id
            for node in nodes
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
        }
        read |= {
            name
            for node in nodes
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        for node in _own_scope(function):
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target] if isinstance(node.target, ast.Name) else []
            elif isinstance(node, ast.ExceptHandler) and node.name:
                targets = [ast.Name(id=node.name, lineno=node.lineno)]
            else:
                continue
            found.extend(
                (target.lineno, target.id)
                for target in targets
                if target.id not in read and not _DUMMY.match(target.id)
            )
    return found


def pyflakes_errors(path: Path) -> list[str]:
    """``"line: code name"`` for every F541 / F822 / F841 error in ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    errors = [(node.lineno, "F541", "") for node in _placeholderless_fstrings(tree)]
    errors += [(line, "F822", name) for line, name in _undefined_exports(tree)]
    errors += [(line, "F841", name) for line, name in _unused_locals(tree)]
    return [
        f"{line}: {code}{' ' + name if name else ''}"
        for line, code, name in sorted(errors)
        if not _suppressed(lines[line - 1], code)
    ]


def test_the_pyflakes_checker_finds_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "from json import *  # noqa: F401\n"
        "__all__ = ['os', 'f', 'ghost', 'Spectre']\n"
        "def f(width):\n"
        "    a = f'plain'\n"
        "    b = f'{width:>6s}' f'{os.sep:{width}}'\n"
        "    c: int = 1\n"
        "    d, e = 1, 2\n"
        "    g = 0\n"
        "    g += 1\n"
        "    _ = 3\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as error:\n"
        "        pass\n"
        "    h = 1\n"
        "    def inner():\n"
        "        return h\n"
        "    k = 2  # noqa: F841\n"
        "    return inner, b, f'x' 'y'\n",
        encoding="utf-8",
    )
    assert pyflakes_errors(sample) == [
        "5: F541", "5: F841 a", "7: F841 c", "14: F841 error", "20: F541",
    ]  # fmt: skip
    exports = tmp_path / "exports.py"
    exports.write_text(
        "import os.path\n"
        "if os:\n"
        "    from json import loads as parse\n"
        "class Spectre: pass\n"
        "__all__ = ['os', 'parse', 'Spectre', 'ghost']\n"
        "__all__ += ['phantom']\n",
        encoding="utf-8",
    )
    assert pyflakes_errors(exports) == ["5: F822 ghost", "6: F822 phantom"]


def test_no_pyflakes_errors():
    found = {
        str(path.relative_to(ROOT)): errors
        for path in ALL_FILES
        if (errors := pyflakes_errors(path))
    }
    assert found == {}


# -- undefined names (F821), by the compiler's own scope analysis ----------------

#: What a module's globals hold without binding them.
_IMPLICIT_GLOBALS = set(dir(builtins)) | {
    "__file__", "__path__", "__cached__", "__builtins__", "__annotations__",
}


def _scopes(table: symtable.SymbolTable):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_names(path: Path) -> list[str]:
    """``"line: F821 name"`` for every read of a global nothing binds."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    if any(
        isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
        for node in ast.walk(tree)
    ):
        return []
    scopes = list(_scopes(symtable.symtable(source, str(path), "exec")))
    bound = {symbol.get_name() for symbol in scopes[0].get_symbols() if symbol.is_local()}
    bound |= {
        symbol.get_name()
        for scope in scopes
        for symbol in scope.get_symbols()
        if symbol.is_declared_global() and symbol.is_assigned()
    }
    undefined = {
        symbol.get_name()
        for scope in scopes
        for symbol in scope.get_symbols()
        if symbol.is_referenced() and symbol.is_global()
    } - bound - _IMPLICIT_GLOBALS
    lines = source.splitlines()
    return sorted(
        {
            f"{node.lineno}: F821 {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in undefined
            and not _suppressed(lines[node.lineno - 1], "F821")
        },
        key=lambda found: int(found.split(":")[0]),
    )


def test_the_undefined_name_checker_finds_what_it_should(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "def f(a):\n"
        "    b = a + ghost\n"
        "    def g():\n"
        "        return b, os.sep, len(a)\n"
        "    return [c for c in a if c > phantom]\n"
        "class C:\n"
        "    y = f\n"
        "    z = spectre\n"
        "    def m(self):\n"
        "        return __class__, super(), y\n"
        "h = lambda q: q + wraith\n"
        "def late():\n"
        "    global later\n"
        "    later = 1\n"
        "print(__name__, __file__, later, banshee)  # noqa: F821\n"
        "try:\n"
        "    pass\n"
        "except ValueError as error:\n"
        "    del error\n",
        encoding="utf-8",
    )
    assert undefined_names(sample) == [
        "3: F821 ghost", "6: F821 phantom", "9: F821 spectre", "11: F821 y",
        "12: F821 wraith",
    ]  # fmt: skip
    star = tmp_path / "star.py"
    star.write_text("from json import *\nloads(ghost)\n", encoding="utf-8")
    assert undefined_names(star) == []


def test_no_undefined_names():
    found = {
        str(path.relative_to(ROOT)): errors
        for path in [*ALL_FILES, *sorted((ROOT / "benchmarks").rglob("*.py"))]
        if (errors := undefined_names(path))
    }
    assert found == {}
