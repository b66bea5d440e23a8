"""The names ``benchmarks/e2e`` binds in ``src/`` still exist."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from benchmarks.e2e import layers
from benchmarks.e2e.trace import TARGETS


def test_every_traced_target_is_defined_where_the_tracer_looks():
    """``Tracer.install`` patches each ``TARGETS`` row by reading
    ``owner.__dict__[attr]`` — an inherited or re-exported name is a
    ``KeyError`` there, and a traced benchmark run is the only other place
    that finds out.  A src-only PR may not edit ``benchmarks/e2e``, so
    renaming or deleting a pinned name needs a ``[benchmark]`` PR that drops
    its target first.
    """
    missing = []
    for row in TARGETS:
        owner = importlib.import_module(row["module"])
        if row["cls"]:
            owner = getattr(owner, row["cls"])
        if row["attr"] not in owner.__dict__:
            missing.append(f"{row['module']}:{row['cls']}.{row['attr']}")
    assert not missing


def test_every_name_the_layer_timings_import_lazily_is_defined():
    """``layers.function_timings`` imports its kernels inside the function, so
    a rename in ``repro.text`` / ``repro.storage`` / ``repro.llm.cache`` is an
    ``ImportError`` only a traced benchmark run would meet.  Walk the file and
    import every ``from repro… import name`` it holds, wherever it sits.
    """
    tree = ast.parse(Path(layers.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}:{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
