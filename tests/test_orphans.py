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

A second scan, over the same trees, holds options to the same rule: every
knob needs a production caller that sets it.  A knob is a defaulted
parameter of a public function or method (``__init__`` included), of a
``*_template`` builder (reached through ``Template.instantiate``), a public
dataclass or named-tuple field with a scalar default that no code assigns
as an attribute (counters are state, not knobs), or an operator ``params``
key the compiler reads with ``params.get``.  :func:`unset_knobs` says what
counts as set.  An unset knob goes and its default becomes the code's
constant, or it is listed in :data:`ALLOWED_PARAMETERS` as an injection
seam the crash matrices use, a field read from outside the program, a
deployment setting, or a value the paper-claims sweep varies.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

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


def _fields(flat: list[list[ast.AST]]) -> set[str]:
    """Names assigned as an attribute or bound in a class body."""
    names: set[str] = set()
    for nodes in flat:
        for node in nodes:
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


@functools.lru_cache(maxsize=4)
def _parsed(root: Path) -> tuple[list[tuple[str, Path, str]], list[ast.Module], list]:
    """``([(folder, path, relative path)], [tree], [[node]])`` of the scanned
    trees; the last holds each tree's nodes in ``ast.walk`` order."""
    sources = [
        (folder, path, path.relative_to(root).as_posix())
        for folder in SCANNED
        for path in sorted((root / folder).rglob("*.py"))
    ]
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), relative)
        for _, path, relative in sources
    ]
    return sources, trees, [list(ast.walk(tree)) for tree in trees]


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
    sources, trees, flat = _parsed(root)
    fields = _fields(flat)
    definitions: dict[tuple[str, str], int] = {}
    methods: set[tuple[str, str]] = set()
    references: list[tuple] = []
    for (folder, path, relative), tree, nodes in zip(sources, trees, flat):
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
            for node in nodes
            if isinstance(node, _LITERALS)
            for element in node.elts
            if isinstance(element, ast.Constant)
        }
        called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        for node in nodes:
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


# ---------------------------------------------------------------------------
# Knobs: every option has a production caller
# ---------------------------------------------------------------------------

#: ``{"holder.knob": reason}`` for knobs kept with no production caller that
#: sets them.  A holder is a function, ``Class.method``, ``Class`` for its
#: constructor and dataclass fields, or ``params`` for an operator key.
ALLOWED_PARAMETERS: dict[str, str] = {
    "FaultSpec.retry_after": "injection seam: the serve chaos matrix's rate limits",
    "ChaosProvider.clock": "injection seam: chaos faults on a virtual clock's windows",
    "JobQueue.default_quota": "injection seam: the serve chaos matrix sizes the queue",
    "JobQueue.provider_factory": "injection seam: the serve chaos matrix's faulty provider",
    "TenantQuota.max_queued": "injection seam: the quota the serve chaos matrix sets",
    "TenantQuota.max_running": "injection seam: the admission suites' running quota",
    "JobSpec.program": "outside input: a field of a submitted job's JSON",
    "JobQueue.drain.timeout": "deployment setting: how long a drain may wait",
    "JobQueue.close.timeout": "deployment setting: how long a close may wait",
    "JobServer.stop.timeout": "deployment setting: how long a server stop may wait",
    "LinguaManga.run.resume": "deployment setting: keep or discard the journal at a path",
    "LinguaManga.run_stream.resume": "deployment setting: keep or discard the ledger at a path",
    "TabularConnector.allowed_tables": "deployment setting: the tables the LLM may query",
    "generate_buy_dataset.hard_fraction": "paper-claims sweep: ROADMAP item 28 varies it",
}


def _bare(node: ast.expr) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _scalar(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Call) and _bare(node.func) == "field":
        node = next((k.value for k in node.keywords if k.arg == "default"), None)
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


def _defaulted(function: ast.FunctionDef, method: bool) -> list[tuple[ast.arg, int | None]]:
    """``[(parameter, position)]`` of a def's defaulted parameters.

    The position counts the arguments a call passes, so a method's ``self``
    is not one; a keyword-only parameter has none.
    """
    positional = function.args.posonlyargs + function.args.args
    static = any(_bare(d) == "staticmethod" for d in function.decorator_list)
    if method and not static:
        positional = positional[1:]
    first = len(positional) - len(function.args.defaults)
    return [(arg, index) for index, arg in enumerate(positional) if index >= first] + [
        (arg, None)
        for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults)
        if default is not None
    ]


def _params_get(node: ast.AST) -> ast.expr | None:
    """The key of a ``<x>.params.get(key, ...)`` / ``params.get`` call."""
    if (
        isinstance(node, ast.Call)
        and _bare(node.func) == "get"
        and _bare(node.func.value) == "params"
        and node.args
    ):
        return node.args[0]
    return None


def _knobs(root: Path) -> tuple[list[tuple], dict[int, dict[str, int]], dict[int, list]]:
    """``(knobs, {def: {param: knob}}, {super().__init__ call: bases})``.

    A knob is ``(file, line, holder, name, callees, position)``: ``callees``
    are the bare names a call that reaches it goes by.  The second map
    gives, per holding ``def``, its knobs' indices, so a call inside it that
    passes one of its own parameters on is set only as far as that
    parameter is.
    """
    sources, trees, flat = _parsed(root)
    classes: dict[str, tuple[list[str], bool]] = {}
    assigned: set[tuple[str | None, str]] = set()
    supers: dict[int, list] = {}
    for nodes in flat:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                bases = [_bare(b) for b in node.bases]
                own_init = any(
                    isinstance(m, _FUNCTIONS) and m.name == "__init__" for m in node.body
                )
                classes[node.name] = (bases, own_init)
                for child in ast.walk(node):
                    if (
                        isinstance(child, ast.Attribute)
                        and isinstance(child.ctx, ast.Store)
                        and _bare(child.value) == "self"
                    ):
                        assigned.add((node.name, child.attr))
                    elif (
                        isinstance(child, ast.Call)
                        and _bare(child.func) == "__init__"
                        and _bare(getattr(child.func.value, "func", child)) == "super"
                    ):
                        supers[id(child)] = bases
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and _bare(node.value) != "self"
            ):
                assigned.add((None, node.attr))

    def constructors(name: str) -> set[str]:
        """``name`` and each subclass that inherits its ``__init__``."""
        names, grown = {name}, True
        while grown:
            grown = False
            for child, (bases, own_init) in classes.items():
                if child not in names and not own_init and names & set(bases):
                    names.add(child)
                    grown = True
        return names

    knobs: list[tuple] = []
    holders: dict[int, dict[str, int]] = {}

    def add(relative, holder, function, callees, method):
        for arg, position in _defaulted(function, method):
            holders.setdefault(id(function), {})[arg.arg] = len(knobs)
            knobs.append((relative, arg.lineno, holder, arg.arg, callees, position))

    src = [
        (relative, path, nodes)
        for (folder, path, relative), nodes in zip(sources, flat)
        if folder == "src"
    ]
    # Helpers that read ``params.get(<their parameter>)``: {name: position}.
    readers = {}
    for _, _, nodes in src:
        if not any(isinstance(_params_get(n), ast.Name) for n in nodes):
            continue
        for node in nodes:
            if isinstance(node, _FUNCTIONS):
                names = [a.arg for a in node.args.args]
                for call in ast.walk(node):
                    key = _params_get(call)
                    if isinstance(key, ast.Name) and key.id in names:
                        readers[node.name] = names.index(key.id)
    params: dict[str, tuple[str, int]] = {}
    for relative, path, nodes in src:
        if path.name == "__init__.py":
            continue
        for node in nodes[0].body:
            if isinstance(node, _FUNCTIONS):
                if node.name.endswith("_template"):
                    add(relative, node.name, node, {node.name, "instantiate"}, False)
                elif not node.name.startswith("_"):
                    add(relative, node.name, node, {node.name}, False)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            record = any(
                _bare(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list
            ) or "NamedTuple" in classes[node.name][0]
            position = 0
            for statement in node.body:
                if (
                    record
                    and isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)
                ):
                    name = statement.target.id
                    if (
                        not name.startswith("_")
                        and _scalar(statement.value)
                        and (node.name, name) not in assigned
                        and (None, name) not in assigned
                    ):
                        knobs.append(
                            (relative, statement.lineno, node.name, name,
                             constructors(node.name), position)
                        )
                    position += 1
                elif isinstance(statement, _FUNCTIONS) and not _is_property(statement):
                    if statement.name == "__init__":
                        add(relative, node.name, statement, constructors(node.name), True)
                    elif not statement.name.startswith("_"):
                        add(
                            relative, f"{node.name}.{statement.name}", statement,
                            {statement.name}, True,
                        )
        for node in nodes:
            key = _params_get(node)
            if key is None and isinstance(node, ast.Call):
                position = readers.get(_bare(node.func))
                if position is not None and len(node.args) > position:
                    key = node.args[position]
            if isinstance(key, ast.Constant):
                params.setdefault(key.value, (relative, node.lineno))
    for key, (relative, line) in params.items():
        knobs.append((relative, line, "params", key, set(), None))
    return knobs, holders, supers


def _scoped(tree: ast.Module, holders: dict):
    """``(node, {param: knob})`` for every node under ``tree``.

    The map holds the knobs of the innermost enclosing knob holder.
    """
    stack = [(tree, {})]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                stack.append((child, holders.get(id(child), scope)))
                continue
            yield child, scope
            stack.append((child, scope))


def unset_knobs(root: Path = ROOT) -> tuple[list[str], set[str]]:
    """``(["file:line holder(knob=)"] unset and not allowed, {"holder.knob"})``.

    A knob is set when a call in ``src/``, ``benchmarks/`` or
    ``examples/`` whose callee goes by one of its names passes it by
    keyword, by position or in a ``**{"knob": ...}`` literal, directly or
    through ``functools.partial`` (a module-level alias of one included).
    A call that passes a ``**mapping`` sets each knob whose name is a key
    some production code writes into a mapping: a string key of a dict
    literal, of ``setdefault`` or of a subscript store, or a keyword to a
    ``**`` parameter.  Operator ``params`` keys are set by those keys
    alone.  A call or key that passes on its caller's own knob sets only
    as far as the caller's is set, to a fixed point; an allowed knob counts
    as set.  Callees are matched by bare name, as methods are above, so
    the check under-reports.
    """
    sources, trees, flat = _parsed(root)
    knobs, holders, supers = _knobs(root)
    by_callee: dict[str, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for index, knob in enumerate(knobs):
        by_name.setdefault(knob[3], []).append(index)
        for callee in knob[4]:
            by_callee.setdefault(callee, []).append(index)
    forwarding = {
        node.name
        for (folder, _, _), nodes in zip(sources, flat)
        if folder == "src"
        for node in nodes
        if isinstance(node, _FUNCTIONS) and node.args.kwarg is not None
    } | {"dict"}  # ``dict(k=...)`` keywords become a mapping's keys too
    aliases: dict[str, tuple[str, int]] = {}
    for tree in trees:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _bare(node.value.func) == "partial"
                and node.value.args
            ):
                for target in node.targets:
                    aliases[_bare(target)] = (
                        _bare(node.value.args[0]), len(node.value.args) - 1
                    )
    # A set's condition: None when unconditional, else the knob it passes on.
    keys: dict[str, set] = {}
    calls: list[tuple] = []

    def condition(value: ast.expr | None, scope: dict):
        return scope.get(value.id) if isinstance(value, ast.Name) else None

    for tree in trees:
        for node, scope in _scoped(tree, holders):
            written: list[tuple[ast.expr, ast.expr | None]] = []
            if isinstance(node, ast.Dict):
                written = list(zip(node.keys, node.values))
            elif isinstance(node, ast.Assign):
                written = [
                    (target.slice, node.value)
                    for target in node.targets
                    if isinstance(target, ast.Subscript)
                ]
            elif isinstance(node, ast.Call):
                name = _bare(node.func)
                if name == "setdefault" and node.args:
                    written = [(node.args[0], (node.args[1:] or [None])[0])]
                elif name in forwarding:
                    written = [
                        (ast.Constant(k.arg), k.value) for k in node.keywords if k.arg
                    ]
                calls.append((node, scope))
            for key, value in written:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.setdefault(key.value, set()).add(condition(value, scope))
    sets: dict[int, set] = {
        index: set(keys.get(knob[3], ()))
        for index, knob in enumerate(knobs)
        if knob[2] == "params"
    }
    for call, scope in calls:
        args, callees, offset = call.args, [_bare(call.func)], 0
        if callees[0] == "partial" and args:
            callees, args = [_bare(args[0])], args[1:]
        elif id(call) in supers:
            callees = supers[id(call)]
        elif callees[0] in aliases:
            callees[0], offset = aliases[callees[0]]
        passed: dict[str | int, ast.expr] = {
            offset + i: arg for i, arg in enumerate(args)
            if not isinstance(arg, ast.Starred)
        }
        starred = len(passed) < len(args)
        mapping = False
        for keyword in call.keywords:
            if keyword.arg:
                passed[keyword.arg] = keyword.value
            elif isinstance(keyword.value, ast.Dict):
                passed.update(
                    (k.value, v) for k, v in zip(keyword.value.keys, keyword.value.values)
                    if isinstance(k, ast.Constant)
                )
            else:
                mapping = True
        if callees == [None]:
            # A call through a table of functions (``batch[metric](...)``)
            # may reach any def: its keywords set every knob of their name.
            for name, value in passed.items():
                for index in by_name.get(name, ()):
                    sets.setdefault(index, set()).add(condition(value, scope))
        for callee in callees:
            for index in by_callee.get(callee, ()):
                _, _, _, name, _, position = knobs[index]
                value = passed.get(name, passed.get(position))
                if value is not None:
                    sets.setdefault(index, set()).add(condition(value, scope))
                elif starred and position is not None:
                    sets.setdefault(index, set()).add(None)
                elif mapping:
                    sets.setdefault(index, set()).update(keys.get(name, ()))
    done = {index for index, conditions in sets.items() if None in conditions}
    done |= {
        index for index, knob in enumerate(knobs)
        if f"{knob[2]}.{knob[3]}" in ALLOWED_PARAMETERS
    }
    grown = True
    while grown:
        before = len(done)
        done |= {index for index, conditions in sets.items() if conditions & done}
        grown = len(done) > before
    named = {f"{knob[2]}.{knob[3]}" for knob in knobs}
    return [
        f"{knob[0]}:{knob[1]} {knob[2]}({knob[3]}=)"
        for index, knob in sorted(enumerate(knobs), key=lambda item: item[1][:2])
        if index not in done and f"{knob[2]}.{knob[3]}" not in ALLOWED_PARAMETERS
    ], named


def _check_knobs(root: Path = ROOT) -> None:
    assert all(reason.strip() for reason in ALLOWED_PARAMETERS.values())
    unset, named = unset_knobs(root)
    stale = sorted(set(ALLOWED_PARAMETERS) - named)
    assert not stale, f"ALLOWED_PARAMETERS names knobs that are gone: {stale}"
    assert not unset, (
        "knobs no call in src/, benchmarks/ or examples/ sets (make each "
        "default the code's constant and drop the tests that turn it, or "
        "allow one in ALLOWED_PARAMETERS with a reason):\n" + "\n".join(unset)
    )


def test_every_knob_has_a_production_caller():
    _check_knobs()


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


def test_a_knob_set_by_any_call_shape_is_not_flagged(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/knobs.py": (
                "from dataclasses import dataclass\n"
                "def by_keyword(x, width=1):\n"
                "    return x\n"
                "def by_position(x, width=1):\n"
                "    return x\n"
                "def by_partial(x, width=1):\n"
                "    return x\n"
                "def by_mapping(x, width=1):\n"
                "    return x\n"
                "class Base:\n"
                "    def __init__(self, width=1):\n"
                "        self.size = width\n"
                "class Child(Base):\n"
                "    pass\n"
                "@dataclass\n"
                "class Box:\n"
                "    width: int = 1\n"
            ),
            "examples/use.py": (
                "from functools import partial\n"
                "from repro.knobs import (\n"
                "    Box, Child, by_keyword, by_mapping, by_partial, by_position\n"
                ")\n"
                "by_keyword(0, width=2)\n"
                "by_position(0, 2)\n"
                "partial(by_partial, width=2)(0)\n"
                "by_mapping(0, **{'width': 2})\n"
                "print(Child(2).size, Box(width=2))\n"
            ),
        },
    )
    unset, named = unset_knobs(root)
    assert unset == []
    assert "Base.width" in named and "Box.width" in named


def test_a_knob_only_tests_set_is_flagged(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/knobs.py": "def scaled(x, factor=2):\n    return x * factor\n",
            "examples/use.py": "from repro.knobs import scaled\nprint(scaled(1))\n",
            "tests/test_knobs.py": (
                "from repro.knobs import scaled\n"
                "assert scaled(1, factor=3) == 3\n"
            ),
        },
    )
    assert unset_knobs(root)[0] == ["src/repro/knobs.py:1 scaled(factor=)"]


def test_an_allowed_knob_that_is_gone_fails(tmp_path, monkeypatch):
    root = _tree(
        tmp_path,
        {
            "src/repro/knobs.py": "def scaled(x):\n    return x * 2\n",
            "examples/use.py": "from repro.knobs import scaled\nprint(scaled(1))\n",
        },
    )
    monkeypatch.setitem(ALLOWED_PARAMETERS, "scaled.factor", "deployment setting: a scale")
    with pytest.raises(AssertionError, match="scaled.factor"):
        _check_knobs(root)
