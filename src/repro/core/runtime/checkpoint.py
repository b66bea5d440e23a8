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
- ``chunk`` — written by a scheduler worker the moment one record chunk
  finishes: the chunk's raw (pre-canonicalization) ledger records, its
  scope's virtual elapsed time, outputs, quarantine decisions and degraded
  count.  Chunk lines make *partially executed operators* resumable at
  chunk granularity.
- ``op`` — written by the plan executor when an operator fully commits:
  the canonical ledger slice, the absolute clock at commit (absolute, not
  a delta, so replay is float-exact), encoded outputs, quarantine,
  module-stats deltas and per-chunk span summaries.  ``op`` records
  supersede their ``chunk`` lines on resume.

Resume replays committed operators (and committed chunks of the operator
in flight) *verbatim from the journal* — ledger records are re-inserted,
not re-requested, so completed work costs zero provider calls — then warms
the prompt cache from the replayed records and hands the scheduler only
the remaining chunks.  Because replay re-inserts the exact bytes the
original run produced, merged in the same chunk order and canonicalized by
the same pass, a resumed :class:`RunReport` (cost, profile, trace) is
byte-identical to an uninterrupted run at any worker count.

There is deliberately no RNG snapshot in the header: every random decision
in the system (simulated responses, chaos fault draws, retry jitter) is a
stable content hash, not a stateful generator, so the virtual clock is the
only mutable time state a resume must restore.  The one stateful exception
— :class:`~repro.llm.faults.ChaosProvider` attempt counters — is captured
per operator commit via ``fault_state()``.

The file itself is a :class:`~repro._jsonl.CheckpointJournal`, the
primitive all four journals share (re-exported here): its fsync,
damaged-line and compaction rules are stated once, in :mod:`repro._jsonl`.
A skipped damaged line can only cost work, never correctness: the header
check refuses a journal whose first line is gone, and an ``op`` commit
whose chunk lines are gone fails its record-count or chunk-coverage check.
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

from repro._jsonl import CheckpointJournal, emit_torn_tail
from repro.core.modules.base import QuarantinedRecord
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
    "ChunkReplay",
    "OperatorReplay",
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

    Not fatal: the chunk/operator is journalled as non-replayable and a
    resume re-executes it from scratch — provider cost is re-paid for that
    operator, but the report stays byte-identical because the re-execution
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
class ChunkReplay:
    """One journalled chunk, decoded and ready to merge in chunk order."""

    index: int
    n_records: int
    records: list[CallRecord]
    elapsed: float
    outputs: list[Any]
    quarantine: list[QuarantinedRecord]
    degraded: int


@dataclass
class OperatorReplay:
    """One committed operator, decoded for zero-cost replay."""

    index: int
    name: str
    records: list[CallRecord]
    clock_end: float
    outputs: Any
    quarantine: list[QuarantinedRecord]
    stats_delta: dict[str, int]
    tree_degraded: int
    chunk_summaries: list[dict]
    fault_state: dict | None


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
_RECORD_FIELDS = tuple(field.name for field in dataclass_fields(CallRecord))
_RECORD_GETTER = operator_module.attrgetter(*_RECORD_FIELDS)
_PROMPT_COLUMN = _RECORD_FIELDS.index("prompt") if "prompt" in _RECORD_FIELDS else -1

#: Minimum shared-prompt length worth factoring out of a record block.
_MIN_PROMPT_PREFIX = 32


def _common_prefix(strings: list[str]) -> str:
    """Longest common prefix, via C-speed comparisons.

    The lexicographic min and max bound every other string, and the split
    point is found by bisection on ``startswith`` — unlike
    ``os.path.commonprefix``, no Python-level per-character loop (prompt
    preambles run to kilobytes).
    """
    lo, hi = min(strings), max(strings)
    limit = min(len(lo), len(hi))
    if lo[:limit] == hi[:limit]:
        return lo[:limit]
    left, right = 0, limit
    while left < right:
        mid = (left + right + 1) // 2
        if hi.startswith(lo[:mid]):
            left = mid
        else:
            right = mid - 1
    return lo[:left]


def _encode_records(records: Iterable[CallRecord]) -> dict:
    """Encode one journal line's ledger records, columnar, prefix-shared.

    The block is ``{"fields": [...], "rows": [[...], ...]}`` — field names
    once per line instead of once per record.  Records in a line come from
    one operator, so their prompts repeat the same instructions-plus-
    examples preamble — close to 90% of journal bytes; a worthwhile common
    prefix is factored into ``prompt_prefix`` with per-record suffixes.
    """
    rows = [list(_RECORD_GETTER(record)) for record in records]
    block: dict = {"fields": list(_RECORD_FIELDS), "rows": rows}
    if len(rows) > 1 and _PROMPT_COLUMN >= 0:
        prompts = [row[_PROMPT_COLUMN] for row in rows]
        if all(type(prompt) is str for prompt in prompts):
            prefix = _common_prefix(prompts)
            if len(prefix) >= _MIN_PROMPT_PREFIX:
                cut = len(prefix)
                for row in rows:
                    row[_PROMPT_COLUMN] = row[_PROMPT_COLUMN][cut:]
                block["prompt_prefix"] = prefix
    return block


def _decode_records(raw: Iterable[dict] | dict) -> list[CallRecord]:
    if isinstance(raw, dict):
        fields = raw["fields"]
        prefix = raw.get("prompt_prefix")
        records = []
        for row in raw["rows"]:
            item = dict(zip(fields, row))
            if prefix is not None:
                item["prompt"] = prefix + item["prompt"]
            records.append(CallRecord(**item))
        return records
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


# -- per-operator scheduler context ----------------------------------------------


class OperatorContext:
    """The scheduler's handle on the checkpoint for one live operator.

    Carries the operator's already-committed chunks in, collects per-chunk
    span summaries out (for the eventual ``op`` commit record), journals
    finished chunks and announces crash boundaries.
    """

    def __init__(self, checkpoint: "RunCheckpoint", index: int, name: str):
        self.checkpoint = checkpoint
        self.index = index
        self.name = name
        self.chunk_summaries: list[dict] = []
        self._journalled = checkpoint._chunks.get(index, {})
        self._recorded: set[int] = set(self._journalled)
        self._replayable: set[int] = {
            chunk_index
            for chunk_index, raw in self._journalled.items()
            if raw.get("replayable", False)
        }
        self._n_chunks: int | None = None

    @property
    def records_in_chunks(self) -> bool:
        """Whether every ledger record of this operator is in a chunk line.

        True once the chunked path journalled (or inherited) a line for
        every chunk — the ``op`` commit then stores only the record *count*
        and reconstructs the canonical slice from the chunk lines on
        resume, instead of re-embedding every prompt a second time (the
        single largest journal cost).
        """
        return self._n_chunks is not None and self._recorded >= set(
            range(self._n_chunks)
        )

    @property
    def outputs_in_chunks(self) -> bool:
        """Whether every chunk line also carries replayable outputs.

        Stronger than :attr:`records_in_chunks`: the chunk merge is a
        plain concatenation in chunk order, so the ``op`` commit can skip
        encoding the merged outputs entirely and resume rebuilds them from
        the chunk lines.
        """
        return self._n_chunks is not None and self._replayable >= set(
            range(self._n_chunks)
        )

    def crash(self, boundary: str) -> None:
        """Announce a named execution boundary to any armed crash point."""
        self.checkpoint.reached(boundary)

    def replayable_chunks(self, chunk_sizes: list[int]) -> dict[int, ChunkReplay]:
        """Decode the journalled chunks that can replay against this plan.

        Validates journalled chunk geometry against the live partition —
        a mismatch means the inputs or chunking changed under a reused
        journal, which the fingerprint should have caught, so it raises
        rather than guessing.
        """
        self._n_chunks = len(chunk_sizes)
        replays: dict[int, ChunkReplay] = {}
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
            replays[chunk_index] = ChunkReplay(
                index=chunk_index,
                n_records=int(raw["n_records"]),
                records=_decode_records(raw["records"]),
                elapsed=float(raw["elapsed"]),
                outputs=decode_value(raw["outputs"]),
                quarantine=_decode_quarantine(raw.get("quarantine", [])),
                degraded=int(raw.get("degraded", 0)),
            )
        with self.checkpoint._lock:
            self.checkpoint.stats.replayed_records += sum(
                len(replay.records) for replay in replays.values()
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
                "records": _encode_records(scope.records),
                "elapsed": scope.elapsed,
                "outputs": outputs,
                "replayable": replayable,
                "quarantine": _encode_quarantine(outcome.quarantine),
                "degraded": outcome.degraded,
            }
        )
        with self.checkpoint._lock:
            self._recorded.add(chunk_index)
            if replayable:
                self._replayable.add(chunk_index)
            self.checkpoint.stats.journaled_chunks += 1

    def note_chunk(
        self,
        chunk_index: int,
        *,
        records: int,
        outputs: int,
        quarantined: int,
        degraded: int,
        replayed: bool,
    ) -> None:
        """Collect one chunk's span summary (merge order, coordinator only)."""
        self.chunk_summaries.append(
            {
                "chunk": chunk_index,
                "records": records,
                "outputs": outputs,
                "quarantined": quarantined,
                "degraded": degraded,
            }
        )
        if replayed:
            with self.checkpoint._lock:
                self.checkpoint.stats.replayed_chunks += 1


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

    def operator_replay(self, index: int, name: str) -> OperatorReplay | None:
        """The decoded commit record for operator ``index``, if replayable."""
        raw = self._ops.get(index)
        if raw is None:
            return None
        if raw.get("name") != name:
            raise CheckpointMismatchError(
                f"journal operator {index} is {raw.get('name')!r}; the plan "
                f"has {name!r} there"
            )
        if not raw.get("replayable", False):
            return None  # outputs did not serialize: re-execute the operator
        if raw.get("records_from_chunks"):
            records = self._reconstruct_op_records(index, int(raw["n_records"]))
        else:
            records = _decode_records(raw["records"])
        if raw.get("outputs_from_chunks"):
            outputs = self._reconstruct_op_outputs(
                index, len(raw.get("chunk_summaries") or [])
            )
        else:
            outputs = decode_value(raw["outputs"])
        return OperatorReplay(
            index=index,
            name=name,
            records=records,
            clock_end=float(raw["clock_end"]),
            outputs=outputs,
            quarantine=_decode_quarantine(raw.get("quarantine", [])),
            stats_delta={k: int(v) for k, v in raw.get("stats_delta", {}).items()},
            tree_degraded=int(raw.get("tree_degraded", 0)),
            chunk_summaries=list(raw.get("chunk_summaries") or []),
            fault_state=raw.get("fault_state"),
        )

    def operator_context(self, index: int, name: str) -> OperatorContext:
        """The scheduler-facing context for executing operator ``index`` live."""
        return OperatorContext(self, index, name)

    def _reconstruct_op_records(self, index: int, n_records: int) -> list[CallRecord]:
        """Rebuild a committed operator's canonical ledger slice.

        An ``op`` record whose chunks are all journalled stores only the
        record count: the canonical slice is the chunk records concatenated
        in chunk order and normalised by the scheduler's (pure,
        deterministic) :func:`canonicalize_ledger` — exactly the pipeline
        the original run's merge applied.  The count cross-checks that the
        chunk lines really cover the operator.
        """
        from repro.core.runtime.scheduler import canonicalize_ledger

        raw_chunks = self._chunks.get(index, {})
        records: list[CallRecord] = []
        for chunk_index in sorted(raw_chunks):
            records.extend(_decode_records(raw_chunks[chunk_index]["records"]))
        if len(records) != n_records:
            raise CheckpointMismatchError(
                f"operator {index} committed {n_records} ledger record(s) "
                f"but its chunk lines hold {len(records)}; the journal is "
                "internally inconsistent"
            )
        canonicalize_ledger(records, 0)
        return records

    def _reconstruct_op_outputs(self, index: int, n_chunks: int) -> list[Any]:
        """Rebuild a committed operator's merged outputs from chunk lines.

        The scheduler merges chunk outputs by concatenation in chunk
        order, so an ``op`` record flagged ``outputs_from_chunks`` stores
        nothing and the concatenation is replayed here.  The flag is only
        written when every one of the ``n_chunks`` chunk lines (one span
        summary each) was replayable; a journal that says otherwise — a
        chunk line missing, say, because load skipped it as damaged — is
        internally inconsistent.  (A chunk may hold no ledger records, so
        the record-count check alone cannot tell.)
        """
        raw_chunks = self._chunks.get(index, {})
        if sorted(raw_chunks) != list(range(n_chunks)):
            raise CheckpointMismatchError(
                f"operator {index} was committed with outputs in {n_chunks} "
                f"chunk line(s), but the journal holds chunks "
                f"{sorted(raw_chunks)}; the journal is internally inconsistent"
            )
        outputs: list[Any] = []
        for chunk_index in sorted(raw_chunks):
            raw = raw_chunks[chunk_index]
            if not raw.get("replayable", False):
                raise CheckpointMismatchError(
                    f"operator {index} was committed with outputs in its "
                    f"chunk lines, but chunk {chunk_index} is not "
                    "replayable; the journal is internally inconsistent"
                )
            outputs.extend(decode_value(raw["outputs"]))
        return outputs

    def apply_operator_replay(
        self, module, replay: OperatorReplay, service: LLMService
    ) -> None:
        """Re-apply one committed operator's effects at zero provider cost.

        Restores the module's stat counters (so ``module_stats`` text
        matches), re-warms the exact cache from the replayed records (so
        later live operators hit exactly what they originally hit),
        re-inserts the canonical ledger slice, pins the virtual clock to
        the recorded absolute commit time (absolute assignment, so no
        float drift accumulates across replayed operators) and restores
        any chaos-provider fault counters captured at commit.
        """
        with module._lock:
            stats = module.stats
            for field_name, delta in replay.stats_delta.items():
                setattr(stats, field_name, getattr(stats, field_name) + delta)
        service.restore_from_records(replay.records)
        service.merge_scope(
            CallScope(base=0.0, clock=VirtualClock(0.0), records=list(replay.records))
        )
        service.clock.now = replay.clock_end
        if replay.fault_state is not None:
            restore = getattr(service.provider, "restore_fault_state", None)
            if callable(restore):
                restore(replay.fault_state)
        with self._lock:
            self.stats.replayed_operators += 1
            self.stats.replayed_records += len(replay.records)

    def commit_operator(
        self,
        index: int,
        name: str,
        *,
        records: list[CallRecord],
        clock_end: float,
        outputs: Any,
        quarantine: list[QuarantinedRecord],
        stats_delta: dict[str, int],
        tree_degraded: int,
        chunk_summaries: list[dict] | None,
        service: LLMService,
        records_in_chunks: bool = False,
        outputs_in_chunks: bool = False,
    ) -> None:
        """Durably commit one finished operator, superseding its chunk lines.

        ``records_in_chunks=True`` (set when every chunk of the operator
        has a journal line) stores the record count instead of re-encoding
        the full canonical slice; resume rebuilds it via
        :meth:`_reconstruct_op_records`.  ``outputs_in_chunks=True`` (every
        chunk line is also replayable) likewise skips re-encoding the
        merged outputs — the merge is a concatenation in chunk order, so
        resume rebuilds it via :meth:`_reconstruct_op_outputs`.
        """
        if outputs_in_chunks:
            encoded = None
            replayable = True
        else:
            try:
                encoded = encode_value(outputs)
                replayable = True
            except UnserializableValueError:
                encoded = None
                replayable = False
        fault_state = None
        snapshot = getattr(service.provider, "fault_state", None)
        if callable(snapshot):
            fault_state = snapshot()
        self.journal.append(
            {
                "type": "op",
                "index": index,
                "name": name,
                "records": None if records_in_chunks else _encode_records(records),
                "records_from_chunks": records_in_chunks,
                "n_records": len(records),
                "clock_end": clock_end,
                "outputs": encoded,
                "outputs_from_chunks": outputs_in_chunks,
                "replayable": replayable,
                "quarantine": _encode_quarantine(quarantine),
                "stats_delta": stats_delta,
                "tree_degraded": tree_degraded,
                "chunk_summaries": chunk_summaries,
                "fault_state": fault_state,
            }
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
