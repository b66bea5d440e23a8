"""Crash-safe checkpoint/resume: the write-ahead run journal.

A long curation run must survive process death without re-paying the LLM:
the ROADMAP's production north star, and the reproducibility stance that
DataDreamer-style resumable workflows make first-class.  This module turns
the crash-tolerant *cache* of PR 3 into a crash-tolerant *system* by
journalling execution itself, write-ahead, beside the cache journal.

The journal is JSONL with three record types:

- ``header`` — written once, before any work: the plan/config
  **fingerprint** (:meth:`PhysicalPlan.fingerprint`), the virtual clock at
  execute begin, and key digests describing the prompt-cache state at
  that instant.  Resume refuses a journal whose
  fingerprint does not match the recompiled plan, and rewinds the cache to
  the recorded state — a crashed run keeps appending to the *cache*
  journal right up to the kill, and serving those extra entries early
  would make the resumed report cheaper than the uninterrupted one
  instead of byte-identical.
- ``chunk`` — written the moment one chunk finishes: the chunk's raw
  (pre-canonicalization) ledger records, its scope's virtual elapsed
  time, quarantine decisions, degraded count and outputs.  Every
  operator's work lives here and nowhere else; one that cannot be split
  runs as one chunk.
- ``op`` — written by the plan executor when an operator fully commits:
  a marker, ``{type, index, name, chunked: true}``.

There is one replay path.  Resume hands every operator — committed or in
flight — to the scheduler, which replays the operator's chunk lines
*verbatim* (ledger records are re-inserted, not re-requested, so completed
work costs zero provider calls), warms the prompt cache from them and runs
only chunks no line holds.  Because replay re-inserts the exact bytes the
original run produced, merged in the same chunk order and canonicalized by
the same pass, a resumed :class:`RunReport` (cost, profile, trace) is
byte-identical to an uninterrupted run at any worker count.

There is deliberately no RNG snapshot in the header: every random decision
in the system (simulated responses, chaos fault draws, retry jitter) is a
stable content hash, not a stateful generator, so the virtual clock is the
only mutable time state a resume must restore.

The file itself is a :class:`~repro._jsonl.CheckpointJournal`, the
primitive all four journals share (re-exported here): its fsync,
damaged-line and compaction rules are stated once, in :mod:`repro._jsonl`.
A skipped damaged line can only cost work, never correctness: the header
check refuses a journal whose first line is gone, and a chunk line that is
gone is a chunk the scheduler runs again, committed operator or not.  An
``op`` line an older build wrote with the work of a whole operator on it
reads as not committed, by the same rule: that operator runs again.
"""

from __future__ import annotations

import hashlib
import json
import operator as operator_module
import threading
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Iterable

from repro._jsonl import CheckpointJournal, _decode_block, _encode_block, emit_torn_tail
from repro.core.modules.base import ChunkOutcome, QuarantinedRecord
from repro.llm.service import CallRecord, CallScope, LLMService
from repro.resilience.clock import VirtualClock

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "UnserializableValueError",
    "encode_value",
    "decode_value",
    "ReplayedValue",
    "CheckpointJournal",
    "OperatorContext",
    "CheckpointStats",
    "RunCheckpoint",
    "begin_journal",
    "fingerprint_payload",
    "digest_inputs",
]

#: Bumped whenever the journal schema changes; resume refuses other versions.
JOURNAL_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The run journal is unusable (corrupt header, wrong schema, reuse)."""


class CheckpointMismatchError(CheckpointError):
    """The journal describes a different plan, inputs or configuration."""


class UnserializableValueError(CheckpointError):
    """An operator output cannot be round-tripped through the journal.

    Not fatal: the chunk is journalled as non-replayable and a resume
    re-executes it from scratch — provider cost is re-paid for that chunk,
    but the report stays byte-identical because the re-execution
    sees exactly the cache state the original first execution saw.
    """


# -- value codec ------------------------------------------------------------------

_TAG = "__ckpt__"


_SCALAR_TYPES = frozenset((str, int, bool, float, type(None)))


def _is_plain_json(value: Any) -> bool:
    """One non-allocating pass deciding whether encoding would be a no-op.

    The common case — operator outputs made of scalars, lists and
    str-keyed dicts — needs no escape forms, so :func:`encode_value` can
    return the value as-is instead of rebuilding every container.  Exact
    ``type()`` membership keeps the scan cheap; exotic subclasses just
    fall back to the rebuilding path.
    """
    scalars = _SCALAR_TYPES
    stack = [value]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind in scalars:
            continue
        if kind is list:
            stack.extend(item)
        elif kind is dict:
            for key, child in item.items():
                if type(key) is not str or key == _TAG:
                    return False
                if type(child) not in scalars:
                    stack.append(child)
        else:
            return False
    return True


def encode_value(value: Any) -> Any:
    """JSON-safe encoding of an operator output value.

    Plain JSON types pass through; tuples and dicts with non-string keys
    get tagged escape forms so :func:`decode_value` round-trips them to
    equal values.  Anything else raises :class:`UnserializableValueError`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if _is_plain_json(value):
        return value
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        if _TAG not in value and all(isinstance(key, str) for key in value):
            return {key: encode_value(item) for key, item in value.items()}
        return {
            _TAG: "dict",
            "v": [[encode_value(key), encode_value(item)] for key, item in value.items()],
        }
    raise UnserializableValueError(
        f"cannot journal a value of type {type(value).__name__}; "
        "only JSON types, tuples and dicts round-trip"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag == "tuple":
            return tuple(decode_value(item) for item in value["v"])
        if tag == "dict":
            return {decode_value(key): decode_value(item) for key, item in value["v"]}
        return {key: decode_value(item) for key, item in value.items()}
    return value


class ReplayedValue:
    """Stand-in for a quarantined record object on replay.

    Only ``repr(record)`` crosses the journal (that is all the canonical
    report renders), so replay substitutes an object whose repr is the
    recorded text byte for byte.
    """

    __slots__ = ("_repr",)

    def __init__(self, repr_text: str):
        self._repr = repr_text

    def __repr__(self) -> str:
        return self._repr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReplayedValue) and other._repr == self._repr

    def __hash__(self) -> int:
        return hash(self._repr)


# -- the run-start header protocol -------------------------------------------------


def begin_journal(
    owner,
    fingerprint: str,
    service: LLMService,
    *,
    format_version: int,
    noun: str,
    label: str,
    mode: str | None = None,
) -> list[dict]:
    """Validate (or create) a run's write-ahead journal before any work runs.

    The one run-start protocol behind :meth:`RunCheckpoint.begin` and
    :meth:`~repro.core.runtime.workqueue.ShardLedger.begin`; ``owner`` is
    either (both carry ``journal``, ``resume``, ``stats`` and ``_began``).
    On resume: checks the header's type, schema version, ``mode``, the
    plan/config fingerprint and the virtual clock at begin (a recompiled
    plan is deterministic, so any divergence means the configuration
    changed), then rewinds the prompt cache to the recorded run-start
    state.  On a fresh journal: writes the header.  What the load repaired
    is counted in ``stats.torn_bytes`` / ``stats.corrupt_lines`` and
    surfaced by :func:`~repro._jsonl.emit_torn_tail`.

    Returns the lines after the header, for the caller to index (empty
    for a fresh journal).  Header fields this build does not read (an older
    build recorded a second digest list) are ignored.
    """
    if owner._began:
        raise CheckpointError(
            f"a {type(owner).__name__} drives exactly one execute(); create "
            "a new one (same path) to resume"
        )
    owner._began = True
    journal, stats = owner.journal, owner.stats
    path = journal.path
    if not owner.resume:
        journal.delete()
    lines = journal.load()
    stats.torn_bytes = journal.torn_bytes
    stats.corrupt_lines = journal.corrupt_lines
    emit_torn_tail(getattr(service, "obs", None), service.clock, journal, label)
    if not lines:
        header = {"type": "header", "format": format_version}
        if mode is not None:
            header["mode"] = mode
        header["fingerprint"] = fingerprint
        header["clock_start"] = service.clock.now
        header["cache_exact"] = service.cache.state_digests()
        journal.append(header)
        return []
    header = lines[0]
    if header.get("type") != "header":
        raise CheckpointError(
            f"{path}: first record is {header.get('type')!r}, "
            f"not a {noun} header"
        )
    if header.get("format") != format_version:
        raise CheckpointError(
            f"{path}: {noun} format {header.get('format')!r} "
            f"(this build reads {format_version})"
        )
    if header.get("mode") != mode:
        raise CheckpointError(
            f"{path}: journal mode {header.get('mode')!r} is not {mode!r}"
        )
    if header.get("fingerprint") != fingerprint:
        raise CheckpointMismatchError(
            f"{path}: {noun} fingerprint {header.get('fingerprint')!r} does "
            f"not match this plan/config ({fingerprint!r}); pass "
            "resume=False to discard it"
        )
    if float(header.get("clock_start", 0.0)) != service.clock.now:
        raise CheckpointMismatchError(
            f"{path}: virtual clock at begin is {service.clock.now!r}, "
            f"{noun} recorded {header.get('clock_start')!r}; the set-up "
            "before execute diverged from the original run"
        )
    if service.cache_enabled:
        stats.cache_entries_pruned = service.cache.restore_state(
            header.get("cache_exact", [])
        )
    stats.resumed = True
    return lines[1:]


# -- decoded journal records ------------------------------------------------------


@dataclass
class CheckpointStats:
    """What one checkpointed execution replayed, journalled and repaired."""

    resumed: bool = False
    replayed_operators: int = 0
    replayed_chunks: int = 0
    journaled_chunks: int = 0
    replayed_records: int = 0
    cache_entries_pruned: int = 0
    torn_bytes: int = 0
    corrupt_lines: int = 0


# CallRecord is a flat dataclass of scalars: one attrgetter call per
# record (a single C call, vs dataclasses.asdict's recursive deepcopy —
# the single hottest line in a checkpointed run) snapshots every field.
_RECORD_FIELDS = tuple(item.name for item in dataclass_fields(CallRecord))
_RECORD_GETTER = operator_module.attrgetter(*_RECORD_FIELDS)


def _encode_records(records: Iterable[CallRecord]) -> dict:
    """One journal line's ledger records as a prompt-sharing record block."""
    return _encode_block(
        _RECORD_FIELDS, [list(_RECORD_GETTER(record)) for record in records]
    )


def _decode_records(raw: Iterable[dict] | dict) -> list[CallRecord]:
    if isinstance(raw, dict):
        fields, rows = _decode_block(raw)
        return [CallRecord(**dict(zip(fields, row))) for row in rows]
    return [CallRecord(**item) for item in raw]


def _encode_quarantine(quarantine: Iterable[QuarantinedRecord]) -> list[dict]:
    return [
        {"record": repr(item.record), "module": item.module_name, "error": item.error}
        for item in quarantine
    ]


def _decode_quarantine(raw: Iterable[dict]) -> list[QuarantinedRecord]:
    return [
        QuarantinedRecord(
            record=ReplayedValue(item["record"]),
            module_name=item["module"],
            error=item["error"],
        )
        for item in raw
    ]


def _encode_slice(scope, outcome) -> dict:
    """One scope's journalled work: a chunk line's or a shard op entry's."""
    return {
        "records": _encode_records(scope.records),
        "elapsed": scope.elapsed,
        "quarantine": _encode_quarantine(outcome.quarantine),
        "degraded": outcome.degraded,
    }


def _decode_slice(raw: dict) -> dict:
    """Invert :func:`_encode_slice`."""
    return {
        "records": _decode_records(raw["records"]),
        "elapsed": float(raw["elapsed"]),
        "quarantine": _decode_quarantine(raw.get("quarantine", [])),
        "degraded": int(raw.get("degraded", 0)),
    }


# -- per-operator scheduler context ----------------------------------------------


class OperatorContext:
    """The scheduler's handle on the checkpoint for one operator it runs.

    Carries the operator's journalled chunks in, journals finished chunks
    and announces crash boundaries.
    """

    def __init__(self, checkpoint: "RunCheckpoint", index: int, name: str):
        self.checkpoint = checkpoint
        self.index = index
        self.name = name
        self._journalled = checkpoint._chunks.get(index, {})

    def crash(self, boundary: str) -> None:
        """Announce a named execution boundary to any armed crash point."""
        self.checkpoint.reached(boundary)

    def replayable_chunks(
        self, chunk_sizes: list[int]
    ) -> dict[int, tuple[CallScope, ChunkOutcome]]:
        """Decode the journalled chunks that can replay against this plan.

        Each comes back as what a live chunk returns — its finished scope
        and outcome — so the scheduler merges both alike.  Validates
        journalled chunk geometry against the live partition: a mismatch
        means the inputs or chunking changed under a reused journal, which
        the fingerprint should have caught, so it raises rather than
        guessing.  A chunk with no replayable line runs live.
        """
        replays: dict[int, tuple[CallScope, ChunkOutcome]] = {}
        for chunk_index, raw in self._journalled.items():
            if chunk_index >= len(chunk_sizes):
                raise CheckpointMismatchError(
                    f"journal has chunk {chunk_index} for operator "
                    f"{self.name!r} but the plan produces only "
                    f"{len(chunk_sizes)} chunk(s)"
                )
            if raw.get("n_records") != chunk_sizes[chunk_index]:
                raise CheckpointMismatchError(
                    f"journalled chunk {chunk_index} of operator {self.name!r} "
                    f"covered {raw.get('n_records')} record(s); the plan's "
                    f"chunk has {chunk_sizes[chunk_index]}"
                )
            if not raw.get("replayable", False):
                continue  # outputs did not serialize: re-execute this chunk
            work = _decode_slice(raw)
            replays[chunk_index] = (
                CallScope(
                    base=0.0,
                    clock=VirtualClock(work["elapsed"]),
                    records=work["records"],
                ),
                ChunkOutcome(
                    outputs=decode_value(raw["outputs"]),
                    quarantine=work["quarantine"],
                    degraded=work["degraded"],
                ),
            )
        with self.checkpoint._lock:
            self.checkpoint.stats.replayed_chunks += len(replays)
            self.checkpoint.stats.replayed_records += sum(
                len(scope.records) for scope, _ in replays.values()
            )
        return replays

    def record_chunk(self, chunk_index: int, chunk: list, scope, outcome) -> None:
        """Write-ahead journal one finished chunk (called from workers)."""
        try:
            outputs = encode_value(list(outcome.outputs))
            replayable = True
        except UnserializableValueError:
            outputs = None
            replayable = False
        self.checkpoint.journal.append(
            {
                "type": "chunk",
                "op": self.index,
                "op_name": self.name,
                "chunk": chunk_index,
                "n_records": len(chunk),
                **_encode_slice(scope, outcome),
                "outputs": outputs,
                "replayable": replayable,
            }
        )
        with self.checkpoint._lock:
            self.checkpoint.stats.journaled_chunks += 1


# -- the run checkpoint -----------------------------------------------------------


class RunCheckpoint:
    """Write-ahead journal + replay state for exactly one ``execute()``.

    Parameters
    ----------
    path:
        Journal file location (conventionally beside the cache journal).
    resume:
        ``True`` (default) replays an existing journal; ``False`` deletes
        any journal at ``path`` and starts fresh.
    crash:
        Optional :class:`~repro.llm.faults.CrashPoint`; every named
        execution boundary is announced to it, so tests can kill the run
        at any chunk or commit boundary.
    """

    def __init__(self, path: str | Path, resume: bool = True, crash=None):
        self.journal = CheckpointJournal(path)
        self.resume = resume
        self.crash = crash
        self.stats = CheckpointStats()
        self._ops: dict[int, dict] = {}
        self._chunks: dict[int, dict[int, dict]] = {}
        self._began = False
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """The journal file path."""
        return self.journal.path

    def reached(self, boundary: str) -> None:
        """Forward a named boundary to the armed crash point, if any."""
        if self.crash is not None:
            self.crash.reached(boundary)

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, fingerprint: str, service: LLMService) -> None:
        """Run :func:`begin_journal`, then index ``op``/``chunk`` records."""
        for line in begin_journal(
            self,
            fingerprint,
            service,
            format_version=JOURNAL_FORMAT_VERSION,
            noun="journal",
            label="checkpoint",
        ):
            kind = line.get("type")
            if kind == "op":
                self._ops[int(line["index"])] = line
            elif kind == "chunk":
                self._chunks.setdefault(int(line["op"]), {})[
                    int(line["chunk"])
                ] = line

    def close(self) -> None:
        """Release the journal file handle."""
        self.journal.close()

    # -- operator replay / commit -------------------------------------------------

    def committed(self, index: int, name: str) -> bool:
        """Whether operator ``index`` committed; its chunk lines hold its work.

        A line an older build wrote with the work of a whole operator on it
        (no ``chunked`` marker) reads as not committed, so that operator
        runs again: the same rule as for a damaged line.
        """
        raw = self._ops.get(index)
        if raw is None:
            return False
        if raw.get("name") != name:
            raise CheckpointMismatchError(
                f"journal operator {index} is {raw.get('name')!r}; the plan "
                f"has {name!r} there"
            )
        # A commit written before the ``chunked`` marker says records_from_chunks;
        # one from an older build may also carry fault counters, which nothing reads.
        return bool(raw.get("chunked", raw.get("records_from_chunks", False)))

    def operator_context(self, index: int, name: str) -> OperatorContext:
        """The scheduler-facing context for running operator ``index``."""
        return OperatorContext(self, index, name)

    def finish_replay(self) -> None:
        """Count one replayed commit's operator as replayed."""
        with self._lock:
            self.stats.replayed_operators += 1

    def commit_operator(self, index: int, name: str) -> None:
        """Durably commit one finished operator: its work is in its chunk lines."""
        self.journal.append(
            {"type": "op", "index": index, "name": name, "chunked": True}
        )
        self.reached("operator:committed")


# -- fingerprinting ---------------------------------------------------------------


def fingerprint_payload(identity: dict) -> str:
    """Hash a stable-identity dict into the journal fingerprint."""
    payload = json.dumps(identity, sort_keys=True, ensure_ascii=False, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest_inputs(inputs: dict | None) -> str:
    """Order-insensitive digest of the caller's ``inputs`` dict."""
    items = sorted((inputs or {}).items(), key=lambda pair: pair[0])
    payload = repr(items)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
