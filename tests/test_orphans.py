"""No public name or method in ``src/repro`` that only the tests reach.

A public module-level ``def``, ``class`` or constant (a name a top-level
assignment binds) outside ``__init__.py``, and a public method of such a
class, must be referenced from ``src/``,
``benchmarks/`` or ``examples/``: as a name that is read, as an attribute
name, or as a string equal to the name (``getattr`` and string dispatch).
A reference from inside the definition's own body does not count, and
neither do imports and ``__all__`` entries (they bind and list a name, they
do not use it).  The scan runs to a fixed point: a definition found
unreferenced stops counting as a referrer, so what only it used is found in
the same run.  A method is matched by its bare name, so two methods that
share one (``reset``, ``clear``) hide each other: the check under-reports.

Two kinds of text look like a use and are not one:

- a string that is a direct element of a list, tuple or set literal is a
  word in a word list (stop words, a template's vocabulary), not a
  dispatch key, so it references nothing;
- an attribute that is not called, ``x.name``, is a data read when
  ``name`` is also assigned as an attribute (``self.name = ...``) or bound
  in a class body (a dataclass field) anywhere in the scanned trees.  Such
  a read does not count for a plain method of that name; it still counts
  for a property, which is read exactly that way.

A name with no production caller either goes with its tests or, when a
test checks a production kernel against it, moves into ``tests/`` (see
``tests/oracles.py``).  One kept on purpose goes in :data:`ALLOWED` (a
method as ``Class.method``) with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples")

#: ``{name: reason}`` for public names kept without a production caller.
ALLOWED: dict[str, str] = {}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_CONSTANTS = (ast.Assign, ast.AnnAssign)
_LITERALS = (ast.List, ast.Tuple, ast.Set)
#: Decorators that make a method a property (or one of its accessors).
_PROPERTIES = {"property", "cached_property", "setter", "deleter"}


def _targets(node: ast.Assign | ast.AnnAssign) -> list[ast.expr]:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _is_property(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        getattr(decorator, "id", getattr(decorator, "attr", None)) in _PROPERTIES
        for decorator in method.decorator_list
    )


def _fields(trees: list[ast.Module]) -> set[str]:
    """Names assigned as an attribute or bound in a class body."""
    names: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if isinstance(statement, _CONSTANTS):
                        names.update(
                            target.id
                            for target in _targets(statement)
                            if isinstance(target, ast.Name)
                        )
    return names


def _scan(
    root: Path = ROOT,
) -> tuple[dict[tuple[str, str], int], set[tuple[str, str]], list[tuple]]:
    """``({(file, name): line}, plain methods, [(name, owner, data read)])``.

    A definition's name is ``name`` or, for a method, ``Class.method``.  The
    owner is the ``(file, name)`` of the definition a reference sits in —
    the method, else the module-level definition — or ``None`` for
    module-level code.  ``data read`` marks an uncalled attribute whose name
    is also a data attribute's: it does not count for a plain method.
    """
    sources = [
        (folder, path, path.relative_to(root).as_posix())
        for folder in SCANNED
        for path in sorted((root / folder).rglob("*.py"))
    ]
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), relative)
        for _, path, relative in sources
    ]
    fields = _fields(trees)
    definitions: dict[tuple[str, str], int] = {}
    methods: set[tuple[str, str]] = set()
    references: list[tuple] = []
    for (folder, path, relative), tree in zip(sources, trees):
        public = folder == "src" and path.name != "__init__.py"
        owners: dict[int, tuple[str, str]] = {}
        for node in tree.body:
            if isinstance(node, _CONSTANTS) and public:
                for target in _targets(node):
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        definitions[relative, target.id] = node.lineno
                        for child in ast.walk(node):
                            owners[id(child)] = (relative, target.id)
            if not isinstance(node, _DEFINITIONS):
                continue
            key = (relative, node.name)
            exported = public and not node.name.startswith("_")
            if exported:
                definitions[key] = node.lineno
            for child in ast.walk(node):
                owners[id(child)] = key
            if not (exported and isinstance(node, ast.ClassDef)):
                continue
            for method in node.body:
                if isinstance(method, _FUNCTIONS) and not method.name.startswith("_"):
                    method_key = (relative, f"{node.name}.{method.name}")
                    definitions[method_key] = method.lineno
                    if not _is_property(method):
                        methods.add(method_key)
                    for child in ast.walk(method):
                        owners[id(child)] = method_key
        listed = {
            id(child)
            for node in tree.body
            if isinstance(node, _CONSTANTS)
            and "__all__" in {getattr(t, "id", None) for t in _targets(node)}
            for child in ast.walk(node)
        }
        words = {
            id(element)
            for node in ast.walk(tree)
            if isinstance(node, _LITERALS)
            for element in node.elts
            if isinstance(element, ast.Constant)
        }
        called = {
            id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
        }
        for node in ast.walk(tree):
            if id(node) in listed or id(node) in words:
                continue
            owner = owners.get(id(node))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((node.id, owner, False))
            elif isinstance(node, ast.Attribute):
                data_read = id(node) not in called and node.attr in fields
                references.append((node.attr, owner, data_read))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                references.append((node.value, owner, False))
    return definitions, methods, references


def unreferenced(root: Path = ROOT) -> list[str]:
    """``file:line name`` of every public definition nothing else reaches."""
    definitions, methods, references = _scan(root)
    dead: set[tuple[str, str]] = set()
    while True:
        # A name's referrers: every reference, and the calls-only subset
        # that counts for a plain method.
        referrers: dict[str, set] = {}
        callers: dict[str, set] = {}
        for name, owner, data_read in references:
            if owner not in dead:
                referrers.setdefault(name, set()).add(owner)
                if not data_read:
                    callers.setdefault(name, set()).add(owner)
        found = {
            key
            for key in definitions
            if key not in dead
            and key[1] not in ALLOWED
            and not (callers if key in methods else referrers).get(
                key[1].rpartition(".")[2], set()
            )
            - {key}
        }
        if not found:
            break
        dead |= found
    return [
        f"{path}:{definitions[path, name]} {name}"
        for path, name in sorted(dead, key=lambda key: (key[0], definitions[key]))
    ]


def test_every_public_name_has_a_production_caller():
    assert all(reason.strip() for reason in ALLOWED.values())
    orphans = unreferenced()
    assert not orphans, (
        "public names and methods only tests reach (delete them with their "
        "tests, move a test oracle into tests/, or allow one in ALLOWED with "
        "a reason):\n"
        + "\n".join(orphans)
    )



def _tree(root: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for folder in SCANNED:
        (root / folder).mkdir(exist_ok=True)
    return root


def test_a_word_in_a_word_list_is_not_a_use(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/words.py": (
                "_STOP = ('merge', 'of', 'the')\n"
                "class Box:\n"
                "    def merge(self):\n"
                "        return 1\n"
                "    def seal(self):\n"
                "        return 2\n"
                "def first():\n"
                "    return _STOP[0]\n"
            ),
            "examples/use.py": (
                "from repro.words import Box, first\n"
                "print(first(), getattr(Box(), 'seal')())\n"
            ),
        },
    )
    assert unreferenced(root) == ["src/repro/words.py:3 Box.merge"]


def test_reading_a_field_does_not_use_a_method_of_its_name(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/pipe.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class Binding:\n"
                "    operator: str\n"
                "    width: int\n"
                "class Pipeline:\n"
                "    def operator(self, name):\n"
                "        return name\n"
                "    def stage(self):\n"
                "        return 0\n"
                "    @property\n"
                "    def width(self):\n"
                "        return 1\n"
            ),
            "examples/use.py": (
                "from repro.pipe import Binding, Pipeline\n"
                "binding, pipeline = Binding('x', 2), Pipeline()\n"
                "print(binding.operator, binding.width, pipeline.stage())\n"
            ),
        },
    )
    assert unreferenced(root) == ["src/repro/pipe.py:7 Pipeline.operator"]
