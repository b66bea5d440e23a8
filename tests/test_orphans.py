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
ALLOWED: dict[str, str] = {
    "JobQueue.kill": "the crash harness's stand-in for server death (SIGKILL)",
    "JobStore.kill": "the crash harness's stand-in for server death (SIGKILL)",
    "JobQueue.resume_pending": (
        "releases a queue built with start=False, which the serve suites use "
        "to hold jobs queued"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_CONSTANTS = (ast.Assign, ast.AnnAssign)


def _targets(node: ast.Assign | ast.AnnAssign) -> list[ast.expr]:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _scan() -> tuple[dict[tuple[str, str], int], list[tuple[str, tuple | None]]]:
    """``({(file, name): line}, [(referenced name, owning definition)])``.

    A definition's name is ``name`` or, for a method, ``Class.method``.  The
    owner is the ``(file, name)`` of the definition a reference sits in —
    the method, else the module-level definition — or ``None`` for
    module-level code.
    """
    definitions: dict[tuple[str, str], int] = {}
    references: list[tuple[str, tuple | None]] = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            relative = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"), relative)
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
                        for child in ast.walk(method):
                            owners[id(child)] = method_key
            listed = {
                id(child)
                for node in tree.body
                if isinstance(node, _CONSTANTS)
                and "__all__" in {getattr(t, "id", None) for t in _targets(node)}
                for child in ast.walk(node)
            }
            for node in ast.walk(tree):
                if id(node) in listed:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    references.append((node.id, owners.get(id(node))))
                elif isinstance(node, ast.Attribute):
                    references.append((node.attr, owners.get(id(node))))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    references.append((node.value, owners.get(id(node))))
    return definitions, references


def unreferenced() -> list[str]:
    """``file:line name`` of every public definition nothing else reaches."""
    definitions, references = _scan()
    dead: set[tuple[str, str]] = set()
    while True:
        referrers: dict[str, set] = {}
        for name, owner in references:
            if owner not in dead:
                referrers.setdefault(name, set()).add(owner)
        found = {
            key
            for key in definitions
            if key not in dead
            and key[1] not in ALLOWED
            and not referrers.get(key[1].rpartition(".")[2], set()) - {key}
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

