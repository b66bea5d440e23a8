"""Crash-safe checkpoint/resume: the write-ahead run journal.

A long curation run must survive process death without re-paying the LLM:
the ROADMAP's production north star, and the reproducibility stance that
DataDreamer-style resumable workflows make first-class.  This module turns
the crash-tolerant *cache* of PR 3 into a crash-tolerant *system* by
journalling execution itself, write-ahead, beside the cache journal.

The journal is JSONL with four record types:

- ``header`` — written once, before the plan compiles: key digests
  describing the prompt-cache state at that instant.  Resume rewinds the
  cache to the recorded state before it recompiles — a crashed run keeps
  appending to the *cache* journal right up to the kill, and serving
  those extra entries early would make the resumed report (and its
  compile step) cheaper than the uninterrupted one instead of
  byte-identical.
- ``plan`` — written once the plan has compiled: the plan/config
  **fingerprint** (:meth:`PhysicalPlan.fingerprint`) and the virtual clock
  at execute begin.  Resume refuses a journal whose fingerprint does not
  match the recompiled plan (:class:`RunJournal`).
- ``chunk`` — written the moment one chunk finishes: the chunk's raw
  (pre-canonicalization) ledger records, its scope's virtual elapsed
  time, quarantine decisions, degraded count and outputs.  Every
  operator's work lives here and nowhere else; one that cannot be split
  runs as one chunk.
- ``op`` — an operator's commit marker, ``{type, index, name}``.  It
  rides in the same append as the last chunk line the operator journals,
  so a one-chunk operator costs one append; an operator whose chunks all
  replayed writes it alone.

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
gone is a chunk the scheduler runs again, committed operator or not.  A
torn final append loses the marker with its chunk line, so that chunk runs
again and the marker is written anew.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro._jsonl import (
    CheckpointJournal,
    _decode_block,
    _encode_block,
    _parse_line,
    emit_torn_tail,
)
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
    "RunJournal",
    "replayed_slice",
    "fingerprint_payload",
    "digest_inputs",
]

#: Bumped whenever the journal schema changes; resume refuses other versions.
JOURNAL_FORMAT_VERSION = 2


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


# -- the run-start protocol ---------------------------------------------------------


class RunJournal:
    """The run-start protocol :class:`RunCheckpoint` and the shard ledger share.

    :meth:`open` runs before the plan compiles and :meth:`begin` once it
    has.  A fresh journal gets its ``header`` at open (the prompt-cache
    state digests) and a ``plan`` line at begin (the plan/config
    fingerprint and the virtual clock).  On resume, open checks the
    header's type, schema version and ``mode`` and rewinds the cache to the
    recorded state, before compile: a compile step that paid the LLM pays
    it again, and the clock at begin matches.  Begin then checks the
    fingerprint and the clock (a recompiled plan is deterministic, so any
    divergence means the configuration changed).  A journal whose last
    attempt died before its plan compiled has a header and no plan line:
    it is rewound, then begun afresh.  The rewind comes before the
    fingerprint is known, so a resume that then fails the check has
    already pruned what the cache gained since the header.

    A journal of another format version is refused and left byte for
    byte as it was: this build reads the lines it writes and no others.
    What the load found damaged is counted in ``stats.torn_bytes`` /
    ``stats.corrupt_lines`` and surfaced by
    :func:`~repro._jsonl.emit_torn_tail`.

    ``crash`` is an optional :class:`~repro.llm.faults.CrashPoint`: both
    engines announce every named execution boundary through
    :meth:`reached`, so tests can kill a run at any chunk, commit or shard
    boundary.
    """

    format_version = JOURNAL_FORMAT_VERSION
    noun = "journal"
    label = "checkpoint"
    mode: str | None = None

    def __init__(self, path: str | Path, resume: bool = True, crash=None):
        self.journal = CheckpointJournal(path)
        self.resume = resume
        self.crash = crash
        self._lines: list[dict] | None = None
        self._began = False
        self._lock = threading.Lock()

    def reached(self, boundary: str) -> None:
        """Forward a named boundary to the armed crash point, if any."""
        if self.crash is not None:
            self.crash.reached(boundary)

    @property
    def path(self) -> Path:
        """The journal file path."""
        return self.journal.path

    def close(self) -> None:
        """fsync and release the journal file handle."""
        self.journal.close()

    def open(self, service: LLMService) -> None:
        """Load or create the journal and rewind the cache; idempotent."""
        if self._lines is not None:
            return
        journal, stats = self.journal, self.stats
        if not self.resume:
            journal.delete()
        elif journal.path.exists():
            # Check the header before the load cuts a torn tail: a journal
            # this build refuses is left byte for byte as the user had it.
            with journal.path.open("rb") as handle:
                first = handle.readline()
            if first.endswith(b"\n"):
                try:
                    header = _parse_line(first)
                except ValueError:
                    header = None
                self._check_header(header if isinstance(header, dict) else {})
        lines = journal.load()
        # An op, chunk or shard line whose fields or work do not decode is
        # damaged like a line that is not JSON: skipped and counted, so its
        # chunk or shard runs again (its operator reads as uncommitted)
        # instead of replaying defaulted columns or raising mid-replay.  The
        # first line is left to the header check below.
        intact = lines[:1] + [line for line in lines[1:] if _work_decodes(line)]
        journal.corrupt_lines += len(lines) - len(intact)
        stats.torn_bytes = journal.torn_bytes
        stats.corrupt_lines = journal.corrupt_lines
        emit_torn_tail(getattr(service, "obs", None), service.clock, journal, self.label)
        if not intact:
            header = {"type": "header", "format": self.format_version}
            if self.mode is not None:
                header["mode"] = self.mode
            header["cache_exact"] = service.cache.state_digests()
            journal.append(header)
            intact = [header]
        else:
            self._check_header(intact[0])
            self.stats.cache_entries_pruned = service.cache.restore_state(
                intact[0]["cache_exact"]
            )
        self._lines = intact

    def _check_header(self, header: dict) -> None:
        path, noun = self.path, self.noun
        if header.get("type") != "header":
            raise CheckpointError(
                f"{path}: first record is {header.get('type')!r}, "
                f"not a {noun} header"
            )
        if header.get("format") != self.format_version:
            raise CheckpointError(
                f"{path}: {noun} format {header.get('format')!r}, but this build "
                f"reads format {self.format_version} only; delete the file or "
                "pass resume=False to start afresh"
            )
        if header.get("mode") != self.mode:
            raise CheckpointError(
                f"{path}: journal mode {header.get('mode')!r} is not {self.mode!r}"
            )
        if type(header.get("cache_exact")) is not list:
            raise CheckpointError(f"{path}: the {noun} header has no cache state")

    def _begin(self, fingerprint: str, service: LLMService) -> list[dict]:
        """Open if nobody did, check or write the plan line; the work lines."""
        if self._began:
            raise CheckpointError(
                f"a {type(self).__name__} drives exactly one execute(); create "
                "a new one (same path) to resume"
            )
        self._began = True
        self.open(service)
        path, noun = self.path, self.noun
        lines = self._lines[1:]
        if lines and lines[0].get("type") == "plan":
            plan = lines.pop(0)
        elif lines:
            raise CheckpointError(f"{path}: the {noun}'s plan line is missing")
        else:
            self.journal.append(
                {
                    "type": "plan",
                    "fingerprint": fingerprint,
                    "clock_start": service.clock.now,
                }
            )
            return []
        if plan.get("fingerprint") != fingerprint:
            raise CheckpointMismatchError(
                f"{path}: {noun} fingerprint {plan.get('fingerprint')!r} does "
                f"not match this plan/config ({fingerprint!r}); pass "
                "resume=False to discard it"
            )
        if plan.get("clock_start") != service.clock.now:
            raise CheckpointMismatchError(
                f"{path}: virtual clock at begin is {service.clock.now!r}, "
                f"{noun} recorded {plan.get('clock_start')!r}; the set-up "
                "before execute diverged from the original run"
            )
        self.stats.resumed = True
        return lines


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


def _encode_records(records: Iterable[CallRecord]) -> dict:
    """One journal line's ledger records as a prompt-sharing record block.

    A :class:`CallRecord` is a named tuple of scalars, so ``list(record)``
    is its row in field order.
    """
    return _encode_block(CallRecord._fields, [list(record) for record in records])


def _decode_records(raw: dict) -> list[CallRecord]:
    """Invert :func:`_encode_records`.

    Raises on a block of the wrong shape (:func:`~repro._jsonl._decode_block`)
    and on a field name :class:`CallRecord` does not have.
    """
    fields, rows = _decode_block(raw)
    return [CallRecord(**dict(zip(fields, row))) for row in rows]


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


def replayed_slice(
    raw: dict, outputs: list | None = None
) -> tuple[CallScope, ChunkOutcome]:
    """Invert :func:`_encode_slice` into what a live scope produces.

    A journalled chunk or shard op comes back as a finished scope (its
    records, and a clock that has run its elapsed time from base 0) and an
    outcome, so both engines fold replayed and live work alike.  A shard
    op journals no outputs of its own; its shard's final outputs stand
    for it.
    """
    return (
        CallScope(
            base=0.0,
            clock=VirtualClock(float(raw["elapsed"])),
            records=_decode_records(raw["records"]),
        ),
        ChunkOutcome(
            outputs=[] if outputs is None else outputs,
            quarantine=_decode_quarantine(raw["quarantine"]),
            degraded=int(raw["degraded"]),
        ),
    )


#: The fields an ``op``, ``chunk`` or ``shard`` line is indexed and checked
#: by; each must be an ``int`` (not a ``bool``).
_INT_FIELDS = {
    "op": ("index",),
    "chunk": ("op", "chunk", "n_records"),
    "shard": ("index", "n_records"),
}


def _work_decodes(line: dict) -> bool:
    """Whether an ``op``, ``chunk`` or ``shard`` line can be replayed: its
    index fields are ints, and its journalled work and (when replayable)
    its outputs decode."""
    kind = line.get("type")
    if any(type(line.get(key)) is not int for key in _INT_FIELDS.get(kind, ())):
        return False
    try:
        if kind == "chunk":
            replayed_slice(line)
        elif kind == "shard":
            for op in line["ops"]:
                replayed_slice(op)
        if kind in ("chunk", "shard") and line.get("replayable", False):
            decode_value(line["outputs"])
    except (KeyError, TypeError, ValueError):
        return False
    return True


# -- per-operator scheduler context ----------------------------------------------


class OperatorContext:
    """The checkpoint's handle on one operator the plan runs.

    Carries the operator's journalled chunks in, journals finished chunks
    and commits the operator.  Once :meth:`replayable_chunks` has counted
    the chunks that must run live, the last of them to be journalled
    carries the operator's ``op`` marker in the same append.  The count
    and that append share a lock, so the marker follows every chunk line
    of its operator in the file at any worker count.
    """

    def __init__(self, checkpoint: "RunCheckpoint", index: int, name: str):
        self.checkpoint = checkpoint
        self.index = index
        self.name = name
        #: committed by an earlier attempt: its marker is on file already
        self.committed = index in checkpoint._ops
        if self.committed and checkpoint._ops[index] != name:
            raise CheckpointMismatchError(
                f"journal operator {index} is {checkpoint._ops[index]!r}; the plan "
                f"has {name!r} there"
            )
        self._marker = {"type": "op", "index": index, "name": name}
        self._journalled = checkpoint._chunks.get(index, {})
        #: live chunks not yet journalled; ``None`` until counted
        self._unjournalled: int | None = None
        self._marked = False
        self._lock = threading.Lock()

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
            if raw["n_records"] != chunk_sizes[chunk_index]:
                raise CheckpointMismatchError(
                    f"journalled chunk {chunk_index} of operator {self.name!r} "
                    f"covered {raw['n_records']} record(s); the plan's "
                    f"chunk has {chunk_sizes[chunk_index]}"
                )
            if not raw.get("replayable", False):
                continue  # outputs did not serialize: re-execute this chunk
            replays[chunk_index] = replayed_slice(raw, decode_value(raw["outputs"]))
        self._unjournalled = len(chunk_sizes) - len(replays)
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
        line = {
            "type": "chunk",
            "op": self.index,
            "chunk": chunk_index,
            "n_records": len(chunk),
            **_encode_slice(scope, outcome),
            "outputs": outputs,
            "replayable": replayable,
        }
        with self._lock:
            if self._unjournalled is not None:
                self._unjournalled -= 1
            if self._unjournalled == 0 and not self.committed:
                self.checkpoint.journal.append(line, self._marker)
                self._marked = True
            else:
                self.checkpoint.journal.append(line)
        with self.checkpoint._lock:
            self.checkpoint.stats.journaled_chunks += 1

    def commit(self) -> None:
        """Commit the operator once the plan has booked it.

        An operator an earlier attempt committed counts as replayed.
        Otherwise its marker went out with its last chunk line, or goes out
        alone now (every chunk replayed), and ``operator:committed`` is
        announced.
        """
        checkpoint = self.checkpoint
        if self.committed:
            with checkpoint._lock:
                checkpoint.stats.replayed_operators += 1
        else:
            if not self._marked:
                checkpoint.journal.append(self._marker)
            checkpoint.reached("operator:committed")


# -- the run checkpoint -----------------------------------------------------------


class RunCheckpoint(RunJournal):
    """Write-ahead journal + replay state for exactly one ``execute()``.

    Parameters
    ----------
    path:
        Journal file location (conventionally beside the cache journal).
    resume:
        ``True`` (default) replays an existing journal; ``False`` deletes
        any journal at ``path`` and starts fresh.
    crash:
        Optional :class:`~repro.llm.faults.CrashPoint` (:class:`RunJournal`).
    """

    def __init__(self, path: str | Path, resume: bool = True, crash=None):
        super().__init__(path, resume, crash)
        self.stats = CheckpointStats()
        #: committed operator index -> its name
        self._ops: dict[int, Any] = {}
        self._chunks: dict[int, dict[int, dict]] = {}

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, fingerprint: str, service: LLMService) -> None:
        """Begin the journal (``RunJournal._begin``), then index ``op``/``chunk`` lines."""
        for line in self._begin(fingerprint, service):
            kind = line.get("type")
            if kind == "op":
                self._ops[line["index"]] = line.get("name")
            elif kind == "chunk":
                self._chunks.setdefault(line["op"], {})[line["chunk"]] = line

    def operator_context(self, index: int, name: str) -> OperatorContext:
        """The scheduler-facing context for running operator ``index``."""
        return OperatorContext(self, index, name)


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
