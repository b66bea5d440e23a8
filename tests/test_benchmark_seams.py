"""The names ``benchmarks/e2e`` binds in ``src/`` still exist."""

from __future__ import annotations

import importlib

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
