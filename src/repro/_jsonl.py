"""The JSON-lines codec every write-ahead journal shares.

The run journal, the shard ledger, the serve job store and the prompt
cache's journal all write one compact JSON object per line through
:func:`_dump_line` and read it back through :func:`_parse_line` — orjson
when it is installed, the stdlib otherwise; either reads what the other
wrote.  A leaf on purpose: it imports nothing of ``repro``, so
``repro.llm.cache`` and ``repro.core.runtime.checkpoint`` (which imports
the LLM service, which imports the cache) can both sit on it.
"""

from __future__ import annotations

import json
from typing import Any

try:  # pre-installed accelerator; journal bytes never require it
    import orjson as _orjson
except ImportError:  # pragma: no cover - CI's no-orjson cell runs without it
    _orjson = None


def _dump_line(record: dict) -> bytes:
    """Encode one compact JSONL line (orjson when present, else stdlib).

    A line orjson refused (non-str keys, an integer beyond 64 bits) is
    written by the stdlib behind one leading space, so :func:`_parse_line`
    hands it back to the stdlib: ``orjson.loads`` would read such an
    integer as a float and a resumed run would silently differ.
    """
    lead = ""
    if _orjson is not None:
        try:
            return _orjson.dumps(record) + b"\n"
        except TypeError:
            lead = " "
    return (
        lead + json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _parse_line(line: bytes) -> Any:
    """Decode one JSONL line; raises ValueError/UnicodeDecodeError on junk."""
    if _orjson is not None and line[:1] != b" ":
        return _orjson.loads(line)
    return json.loads(line.decode("utf-8"))


def _dump_scalar(value: str | int) -> bytes:
    """UTF-8 of ``json.dumps(value, ensure_ascii=False)`` for a string or integer.

    Digests hash these bytes, so they may never change: orjson spells
    every string without a lone surrogate and every 64-bit integer exactly
    as the stdlib does, and refuses the rest, which the stdlib then encodes
    (or fails on) as it always did.
    """
    if _orjson is not None:
        try:
            return _orjson.dumps(value)
        except TypeError:
            pass
    return json.dumps(value, ensure_ascii=False).encode("utf-8")
