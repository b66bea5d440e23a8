"""Durable shard work-queue and pipelined streaming executor.

The batch runtime (:mod:`repro.core.runtime.scheduler` +
:mod:`repro.core.runtime.checkpoint`) materializes every operator's full
input before chunking it, so a million-record curation run holds the whole
dataset — and every intermediate — in memory.  This module is the
out-of-core counterpart: datasets stay *iterators*, operators pull fixed
size **shards** from a durable work queue and emit downstream without
waiting for full-operator completion, and peak RSS is bounded at
O(chunk_size x window) instead of O(dataset).

Three pieces:

- :class:`ShardLedger` — the write-ahead journal.  One ``shard`` line per
  completed shard (superseding the batch runtime's linear chunk log), plus
  ``fail`` lines for deterministic shard failures and a ``poison`` line
  when a shard exhausts its attempt budget.  The header pins the run
  fingerprint, the virtual clock and the prompt-cache state exactly like
  :class:`~repro.core.runtime.checkpoint.RunCheckpoint` does.
- :class:`WorkQueue` — the in-memory shard state machine: ``pending ->
  running -> done | poisoned``.  A shard whose execution raises is
  pending again at once and, being the smallest pending index, is what
  the next idle worker runs; a shard that keeps failing is **quarantined
  as poison** after ``max_attempts`` — reported, never aborting the run.
  Backpressure: shards are materialized from the source only while the
  in-flight window has room, and a live shard's records wait on its
  queue entry until the shard is folded.
- :class:`StreamingExecutor` — drives a compiled
  :class:`~repro.core.compiler.plan.PhysicalPlan` through the queue and
  folds shard results into a normal :class:`RunReport`.

Determinism contract (the streaming crash matrix pins this): a run
crashed and resumed at any shard boundary, at any worker count, cold or
warm cache, produces a byte-identical ``RunReport.canonical_json()``.
The mechanics:

- every per-(shard, op) scope starts at the same virtual base time, and
  the fold advances the shared clock by each scope's elapsed time in
  (shard, op) order — the same float addition sequence live or replayed;
- per-shard ledger records are **not** retained (that would be O(dataset)
  memory); instead the fold accumulates per-operator profile sums, which
  are invariant under coalescing races and retries because every
  distinct prompt contributes exactly one originating record plus its
  exact-cache hits regardless of which shard attempt produced them;
- a failed shard attempt has its cache inserts **rolled back**
  (:meth:`~repro.llm.service.LLMService.rollback_scope`), so the retry
  re-serves exactly what an undisturbed run would have served.  This
  requires that duplicate prompts not straddle shards that can race with
  a failing one — :class:`repro.datasets.streaming.StreamingERCorpus`
  makes prompts corpus-unique for precisely this reason.  What a failed
  attempt paid the provider is not in the report;
- the poison verdict counts executions that raised, carried across a
  crash by the ledger's ``fail`` lines, so the quarantine section of the
  report is identical under any crash schedule.

Fault points (for :class:`~repro.llm.faults.CrashPoint`): the per-shard
boundaries ``shard:claimed``, ``shard:executed``, ``shard:journaled``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.compiler.plan import (
    OperatorResilience,
    PhysicalPlan,
    RunReport,
    run_operator_step,
)
from repro.core.modules.base import QuarantinedRecord
from repro.core.optimizer.cost import CostSnapshot
from repro.core.runtime.checkpoint import (
    CheckpointJournal,
    CheckpointMismatchError,
    ReplayedValue,
    UnserializableValueError,
    _decode_quarantine,
    _decode_records,
    _encode_quarantine,
    _encode_records,
    begin_journal,
    decode_value,
    encode_value,
    fingerprint_payload,
)
from repro.core.runtime.scheduler import (
    iter_chunks,
    resolve_chunk_size,
    tree_parallel_safe,
)
from repro.llm.service import CallRecord, LLMService
from repro.obs.profile import ProfileRow, RunProfile, profile_records

__all__ = [
    "SHARD_LEDGER_FORMAT_VERSION",
    "DEFAULT_MAX_ATTEMPTS",
    "StreamingPlanError",
    "ShardOpReplay",
    "ShardReplay",
    "PoisonInfo",
    "ShardLedgerStats",
    "ShardLedger",
    "WorkQueue",
    "StreamingExecutor",
]

#: Bumped whenever the shard-ledger schema changes; resume refuses others.
SHARD_LEDGER_FORMAT_VERSION = 1

#: Failed executions before a shard is quarantined as poison.
DEFAULT_MAX_ATTEMPTS = 3

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_POISONED = "poisoned"


class StreamingPlanError(RuntimeError):
    """The plan cannot run as a stream (non-linear, no chunkable core)."""


# -- decoded ledger records ---------------------------------------------------------


@dataclass
class ShardOpReplay:
    """One middle operator's journalled slice of one shard."""

    name: str
    records: list[CallRecord]
    elapsed: float
    quarantine: list[QuarantinedRecord]
    degraded: int


@dataclass
class ShardReplay:
    """One journalled shard, decoded for zero-cost replay."""

    index: int
    n_records: int
    ops: list[ShardOpReplay]
    outputs: list[Any]


@dataclass
class PoisonInfo:
    """One quarantined shard: who failed, how often, on what records."""

    index: int
    n_records: int
    attempts: int
    op: str
    error: str
    records: list[Any]  # record objects live, ReplayedValue stand-ins on resume


@dataclass
class ShardLedgerStats:
    """What one streaming execution replayed, journalled and repaired."""

    resumed: bool = False
    replayed_shards: int = 0
    journaled_shards: int = 0
    replayed_records: int = 0
    quarantined_shards: int = 0
    cache_entries_pruned: int = 0
    torn_bytes: int = 0
    corrupt_lines: int = 0


# -- the shard ledger ---------------------------------------------------------------


class ShardLedger:
    """Write-ahead shard journal: the durable half of the work queue.

    JSONL with four record types:

    - ``header`` — written once, before any work: the streaming
      run fingerprint, the virtual clock at begin, and the prompt-cache
      state digests (resume rewinds the cache to them, exactly like the
      batch checkpoint, so a crashed run's extra cache appends cannot make
      the resumed report cheaper than the uninterrupted one).
    - ``shard`` — one completed shard: per-operator ledger records (the
      columnar, prefix-shared encoding shared with the batch journal),
      per-operator virtual elapsed time, quarantine and degraded counts,
      and the shard's final outputs.  Written *before* the queue marks the
      shard done, so an acknowledged completion is always resumable.
      Duplicate lines for one index are tolerated (a shard whose outputs
      did not serialize re-executes on resume and re-journals); the last
      line wins.
    - ``fail`` — one deterministic shard failure: attempt number, the
      operator that raised, the error text.  Resume counts a shard's fail
      lines to carry its attempt budget across a crash; they are ignored
      once a ``shard`` (or ``poison``) line exists for the index.
    - ``poison`` — the quarantine verdict for a shard that exhausted its
      attempts: reprs of its input records (all the canonical report
      renders) and the final error.  A poisoned shard is
      never re-executed after this line commits.
    """

    def __init__(self, path: str | Path, resume: bool = True):
        self.journal = CheckpointJournal(path)
        self.resume = resume
        self.stats = ShardLedgerStats()
        self._shards: dict[int, dict] = {}
        self._poisons: dict[int, dict] = {}
        self._fails: dict[int, list[dict]] = {}
        self._began = False
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """The journal file path."""
        return self.journal.path

    def begin(self, fingerprint: str, service: LLMService) -> None:
        """Run :func:`begin_journal`, then index shard/fail/poison lines."""
        for line in begin_journal(
            self,
            fingerprint,
            service,
            format_version=SHARD_LEDGER_FORMAT_VERSION,
            noun="ledger",
            label="shard-ledger",
            mode="streaming",
        ):
            kind = line.get("type")
            if kind == "shard":
                self._shards[int(line["index"])] = line
            elif kind == "poison":
                self._poisons[int(line["index"])] = line
            elif kind == "fail":
                self._fails.setdefault(int(line["index"]), []).append(line)

    # -- resume-side reads ---------------------------------------------------------

    def has_shard(self, index: int) -> bool:
        """Whether a completed ``shard`` line exists for ``index``."""
        return index in self._shards

    def shard_n_records(self, index: int) -> int:
        """Journalled input-record count of shard ``index``."""
        return int(self._shards[index]["n_records"])

    def shard_replayable(self, index: int) -> bool:
        """Whether shard ``index``'s outputs round-tripped the journal."""
        return bool(self._shards[index].get("replayable", False))

    def max_recorded_index(self) -> int:
        """Largest shard index any journalled line mentions (-1 if none)."""
        indexes = [*self._shards, *self._poisons, *self._fails]
        return max(indexes) if indexes else -1

    def shard_replay(self, index: int) -> ShardReplay:
        """Decode one journalled shard for replay."""
        raw = self._shards[index]
        ops = [
            ShardOpReplay(
                name=str(op["name"]),
                records=_decode_records(op["records"]),
                elapsed=float(op["elapsed"]),
                quarantine=_decode_quarantine(op.get("quarantine", [])),
                degraded=int(op.get("degraded", 0)),
            )
            for op in raw["ops"]
        ]
        return ShardReplay(
            index=index,
            n_records=int(raw["n_records"]),
            ops=ops,
            outputs=decode_value(raw["outputs"]),
        )

    def replayable_shard_indexes(self) -> list[int]:
        """Indexes with replayable shard lines, ascending."""
        return sorted(
            index
            for index, raw in self._shards.items()
            if raw.get("replayable", False)
        )

    def rewarm(self, service: LLMService) -> int:
        """Re-warm the exact cache from every replayable shard line.

        Runs once, before any live shard executes, in shard/op order —
        live shards then hit exactly what they would have hit in the
        uninterrupted run.  Non-replayable shard lines are skipped: those
        shards re-execute, and pre-warming them with their own answers
        would turn their re-served calls into cache hits and break
        byte-identical resume.  Decodes one shard at a time, so rewarm
        itself stays memory-bounded.
        """
        warmed = 0
        for index in self.replayable_shard_indexes():
            for op in self._shards[index]["ops"]:
                warmed += service.restore_from_records(_decode_records(op["records"]))
        return warmed

    def poison(self, index: int) -> PoisonInfo | None:
        """The journalled quarantine verdict for ``index``, if any."""
        raw = self._poisons.get(index)
        if raw is None:
            return None
        return PoisonInfo(
            index=index,
            n_records=int(raw["n_records"]),
            attempts=int(raw["attempts"]),
            op=str(raw["op"]),
            error=str(raw["error"]),
            records=[ReplayedValue(text) for text in raw.get("records", [])],
        )

    def attempts(self, index: int) -> int:
        """Attempt budget already spent on ``index`` in a prior run.

        Fail lines are ignored once a shard line exists — the shard
        eventually succeeded, so its early failures are history, not debt.
        """
        if index in self._shards or index in self._poisons:
            return 0
        return len(self._fails.get(index, []))

    def last_fail(self, index: int) -> tuple[str, str]:
        """``(op, error)`` of the highest-attempt fail line for ``index``."""
        fails = self._fails.get(index)
        if not fails:
            return ("", "")
        last = max(fails, key=lambda line: int(line.get("attempt", 0)))
        return (str(last.get("op", "")), str(last.get("error", "")))

    # -- write-ahead appends ---------------------------------------------------------

    def record_shard(
        self,
        index: int,
        n_records: int,
        op_results: list[tuple[str, Any, Any]],
        outputs: list[Any],
    ) -> None:
        """Journal one executed shard (write-ahead of its completion)."""
        try:
            encoded = encode_value(list(outputs))
            replayable = True
        except UnserializableValueError:
            encoded = None
            replayable = False
        self.journal.append(
            {
                "type": "shard",
                "index": index,
                "n_records": n_records,
                "ops": [
                    {
                        "name": name,
                        "records": _encode_records(scope.records),
                        "elapsed": scope.elapsed,
                        "quarantine": _encode_quarantine(outcome.quarantine),
                        "degraded": outcome.degraded,
                    }
                    for name, scope, outcome in op_results
                ],
                "outputs": encoded,
                "replayable": replayable,
            }
        )
        with self._lock:
            self.stats.journaled_shards += 1

    def record_fail(self, index: int, attempt: int, op: str, error: str) -> None:
        """Journal one deterministic shard failure (carries the budget)."""
        self.journal.append(
            {"type": "fail", "index": index, "attempt": attempt, "op": op,
             "error": error}
        )

    def record_poison(self, info: PoisonInfo) -> None:
        """Journal a quarantine verdict; the shard never re-runs."""
        self.journal.append(
            {
                "type": "poison",
                "index": info.index,
                "n_records": info.n_records,
                "attempts": info.attempts,
                "op": info.op,
                "error": info.error,
                "records": [repr(record) for record in info.records],
            }
        )

    def close(self) -> None:
        """fsync and release the journal file handle."""
        self.journal.close()


# -- the work queue -----------------------------------------------------------------


@dataclass
class _Shard:
    """Mutable per-shard queue state (guarded by the queue condition)."""

    index: int
    n_records: int
    status: str = _PENDING
    source: str = "live"  # live | replay | poison
    attempts: int = 0  # executions that raised, this run and prior ones
    #: What the source produced for a live shard, shared by every attempt
    #: (never mutated in place); replay and poison shards hold nothing.
    records: list[Any] | None = None


class WorkQueue:
    """The shard state machine: pending -> running -> done | poisoned.

    Single condition variable; every state change notifies.  A claim is
    the shard's index: :meth:`next_task` hands the smallest pending index
    to an idle worker, which ends the attempt with :meth:`complete` or
    :meth:`fail`.  A failed shard is pending again at once, so it is the
    next thing run; after ``max_attempts`` failures it is held running
    until the caller has journalled the verdict and confirms the poison.

    Shards are materialized lazily from ``chunks`` (an iterator of record
    lists) under one backpressure gate, the in-flight **window**: at most
    ``window`` shards past the fold frontier exist at once, so the queue
    holds at most ``window x chunk_size`` source records
    (``inflight_peak_records`` is the observed high-watermark).  A live
    shard's record list stays on its entry — a retry re-reads it without
    rewinding the source — and goes with the entry at :meth:`mark_folded`.
    Chunks whose index already has a ledger ``shard``/``poison`` line are
    registered as replay/poison folds and their records discarded
    immediately — a resume re-iterates the (deterministic) source instead
    of persisting shard inputs.
    """

    def __init__(
        self,
        chunks: Iterable[list[Any]],
        *,
        window: int,
        ledger: ShardLedger,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        metrics: Any = None,
    ):
        if window < 1:
            raise ValueError("window must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self._chunks = iter(chunks)
        self.window = window
        self.ledger = ledger
        self.max_attempts = max_attempts
        self.metrics = metrics
        self._cond = threading.Condition()
        self._shards: dict[int, _Shard] = {}
        self._next_index = 0
        self._exhausted = False
        self.n_shards: int | None = None
        self._frontier = 0
        self._aborted = False
        self.inflight_peak_records = 0
        self.shard_failures = 0
        self.poisoned = 0
        self.replayed = 0

    @property
    def frontier(self) -> int:
        """First shard index not yet folded downstream."""
        with self._cond:
            return self._frontier

    def abort(self) -> None:
        """Stop handing out work (crash propagation); wakes every waiter."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    @property
    def aborted(self) -> bool:
        """Whether :meth:`abort` was called."""
        with self._cond:
            return self._aborted

    # -- the single evaluation pass ---------------------------------------------------

    def next_task(self) -> tuple[str, int | None]:
        """One scheduling decision for one idle worker.

        Returns ``("run", index)`` to execute a shard, ``("poison",
        index)`` when a shard's carried-over attempt budget is already
        exhausted (the caller writes the verdict without re-executing),
        ``("retry", None)`` when the caller should fold and ask again, and
        ``("done", None)`` when every shard is folded (or the queue
        aborted).
        """
        with self._cond:
            while True:
                if self._aborted:
                    return ("done", None)
                shard = self._claimable_locked()
                if shard is not None:
                    shard.status = _RUNNING
                    self._gauges_locked()
                    # A prior run burned the whole budget (crash landed
                    # between the final fail line and the poison line):
                    # quarantine without re-executing, so the resumed
                    # verdict matches the uninterrupted one byte for byte.
                    carried = shard.attempts >= self.max_attempts
                    return ("poison" if carried else "run", shard.index)
                if self._materialize_locked():
                    continue
                if self._foldable_locked():
                    return ("retry", None)
                if self._done_locked():
                    return ("done", None)
                # Timeout guards against a missed notify under real-time
                # scheduling jitter; state is re-evaluated on every wake.
                self._cond.wait(timeout=0.1)

    def _claimable_locked(self) -> _Shard | None:
        """Smallest-index pending live shard."""
        candidate = None
        for shard in self._shards.values():
            if (
                shard.status == _PENDING
                and shard.source == "live"
                and (candidate is None or shard.index < candidate.index)
            ):
                candidate = shard
        return candidate

    def _materialize_locked(self) -> bool:
        """Pull (at most) one chunk from the source; True if state changed."""
        if self._exhausted:
            return False
        if self._next_index >= self._frontier + self.window:
            return False  # in-flight window full: backpressure
        try:
            chunk = next(self._chunks)
        except StopIteration:
            self._exhausted = True
            self.n_shards = self._next_index
            recorded = self.ledger.max_recorded_index()
            if recorded >= self.n_shards:
                raise CheckpointMismatchError(
                    f"ledger mentions shard {recorded} but the source "
                    f"produced only {self.n_shards} shard(s); the source "
                    "changed under a reused ledger"
                )
            self._cond.notify_all()
            return True
        index = self._next_index
        if self.ledger.has_shard(index):
            expected = self.ledger.shard_n_records(index)
            if expected != len(chunk):
                raise CheckpointMismatchError(
                    f"ledger shard {index} covered {expected} record(s); the "
                    f"source produced {len(chunk)}"
                )
            if self.ledger.shard_replayable(index):
                # Completed in a prior run: discard the records (the fold
                # replays the journalled results) — this is the
                # consume-and-discard source skip.
                self._register_locked(
                    _Shard(index, len(chunk), status=_DONE, source="replay")
                )
                self.replayed += 1
                return True
            # Outputs did not serialize: fall through and re-execute live.
        else:
            poison = self.ledger.poison(index)
            if poison is not None:
                if poison.n_records != len(chunk):
                    raise CheckpointMismatchError(
                        f"ledger poison {index} covered {poison.n_records} "
                        f"record(s); the source produced {len(chunk)}"
                    )
                self._register_locked(
                    _Shard(index, len(chunk), status=_POISONED, source="poison")
                )
                return True
        self._register_locked(
            _Shard(
                index,
                len(chunk),
                status=_PENDING,
                source="live",
                attempts=self.ledger.attempts(index),
                records=chunk,
            )
        )
        held = sum(
            shard.n_records
            for shard in self._shards.values()
            if shard.records is not None
        )
        self.inflight_peak_records = max(self.inflight_peak_records, held)
        return True

    def _register_locked(self, shard: _Shard) -> None:
        self._shards[shard.index] = shard
        self._next_index += 1
        self._cond.notify_all()
        self._gauges_locked()

    def _foldable_locked(self) -> bool:
        shard = self._shards.get(self._frontier)
        return shard is not None and shard.status in (_DONE, _POISONED)

    def _done_locked(self) -> bool:
        return self._exhausted and self._frontier == self.n_shards

    # -- attempt verbs (a claim is the shard's index) ----------------------------------

    def _running_locked(self, index: int) -> _Shard:
        shard = self._shards.get(index)
        if shard is None or shard.status != _RUNNING:
            raise RuntimeError(f"shard {index} is not running")
        return shard

    def records(self, index: int) -> list[Any] | None:
        """What the source produced for shard ``index`` (None once folded)."""
        with self._cond:
            shard = self._shards.get(index)
            return None if shard is None else shard.records

    def complete(self, index: int) -> None:
        """Mark a running shard done: the fold may take it."""
        with self._cond:
            self._running_locked(index).status = _DONE
            self._cond.notify_all()
            self._gauges_locked()

    def fail(self, index: int) -> tuple[str, int]:
        """Register a failed execution; returns the verdict.

        ``("retry", attempts)``: the shard is pending again and is the
        next thing run; ``("poison", attempts)``: the budget is spent and
        the shard stays running until the caller has journalled the
        verdict and calls :meth:`confirm_poison`.
        """
        with self._cond:
            shard = self._running_locked(index)
            shard.attempts += 1
            self.shard_failures += 1
            if self.metrics is not None:
                self.metrics.counter("workqueue.shard_failures").inc()
            if shard.attempts >= self.max_attempts:
                return ("poison", shard.attempts)
            shard.status = _PENDING
            self._cond.notify_all()
            self._gauges_locked()
            return ("retry", shard.attempts)

    def confirm_poison(self, index: int) -> None:
        """Commit the quarantine after the poison line is journalled."""
        with self._cond:
            self._running_locked(index).status = _POISONED
            self.poisoned += 1
            if self.metrics is not None:
                self.metrics.counter("workqueue.poisoned").inc()
            self._cond.notify_all()
            self._gauges_locked()

    # -- fold frontier -----------------------------------------------------------------

    def next_foldable(self) -> _Shard | None:
        """The frontier shard, iff it is ready to fold downstream."""
        with self._cond:
            shard = self._shards.get(self._frontier)
            if shard is None or shard.status not in (_DONE, _POISONED):
                return None
            return shard

    def mark_folded(self, index: int) -> None:
        """Advance the fold frontier past ``index`` (unblocks the window)."""
        with self._cond:
            if index != self._frontier:
                raise RuntimeError(
                    f"fold order violation: folding shard {index} at "
                    f"frontier {self._frontier}"
                )
            self._shards.pop(index, None)
            self._frontier += 1
            self._cond.notify_all()
            self._gauges_locked()

    def _gauges_locked(self) -> None:
        if self.metrics is None:
            return
        pending = running = 0
        for shard in self._shards.values():
            if shard.status == _PENDING:
                pending += 1
            elif shard.status == _RUNNING:
                running += 1
        self.metrics.gauge("workqueue.depth").set(pending)
        self.metrics.gauge("workqueue.inflight").set(running)
        self.metrics.gauge("workqueue.frontier").set(self._frontier)


# -- profile-row folding ------------------------------------------------------------


def _add_rows(accumulated: ProfileRow, row: ProfileRow) -> ProfileRow:
    """Field-wise sum of two profile rows (fold order fixes float order)."""
    return ProfileRow(
        module=accumulated.module,
        calls=accumulated.calls + row.calls,
        provider_calls=accumulated.provider_calls + row.provider_calls,
        cache_exact=accumulated.cache_exact + row.cache_exact,
        distilled=accumulated.distilled + row.distilled,
        cost=accumulated.cost + row.cost,
        latency_seconds=accumulated.latency_seconds + row.latency_seconds,
        provider_seconds=accumulated.provider_seconds + row.provider_seconds,
        distilled_seconds=accumulated.distilled_seconds + row.distilled_seconds,
        retries=accumulated.retries + row.retries,
        failures=accumulated.failures + row.failures,
        quarantined=accumulated.quarantined + row.quarantined,
    )


# -- the streaming executor ----------------------------------------------------------


class StreamingExecutor:
    """Pipelined, memory-bounded execution of a compiled physical plan.

    The plan must be a **linear chain** with a chunk-capable, parallel-safe
    core: a (possibly empty) coordinator-side *prefix* (e.g. a lazy load),
    a maximal run of chunk-capable *middle* operators that the work queue
    streams shard by shard, and a (possibly empty) coordinator-side
    *suffix* (e.g. a save).  The prefix's output feeds the queue as an
    iterator and is never materialized by the executor; keep prefix
    transforms lazy and the whole run is O(window x chunk) resident.

    ``sink`` switches the output mode: ``None`` collects the middle
    outputs into a list and runs the suffix on it (convenient, but O(n)
    memory in the outputs); a callable receives each shard's outputs in
    shard order and the suffix — which must then be pass-through ``save``
    operators — is skipped, its report value replaced by ``{"records": n,
    "sha256": digest}`` over the streamed outputs.  The digest is chained
    in shard order, so it is part of the byte-identity contract.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        *,
        ledger: ShardLedger,
        workers: int = 1,
        chunk_size: int | None = None,
        window: int | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        sink: Callable[[list[Any]], Any] | None = None,
        source_id: str = "",
        crash: Any = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.plan = plan
        self.ledger = ledger
        self.workers = workers
        self.chunk_size = chunk_size
        self.window = window if window is not None else max(4 * workers, 8)
        self.max_attempts = max_attempts
        self.sink = sink
        self.source_id = source_id
        self.crash = crash
        self.queue: WorkQueue | None = None
        # fold state
        self._fold_lock = threading.Lock()
        self._results_lock = threading.Lock()
        self._results: dict[int, tuple[list, list]] = {}
        self._live_poisons: dict[int, PoisonInfo] = {}
        self._rows: dict[str, ProfileRow] = {}
        self._resil: dict[str, dict[str, int]] = {}
        self._output_buffer: list[Any] = []
        self._sink_records = 0
        self._sink_digest = hashlib.sha256()
        self._run_base = 0.0
        self._report: RunReport | None = None

    # -- plan splitting ----------------------------------------------------------------

    def _split_chain(self):
        """Validate linearity and split the chain into prefix/middle/suffix."""
        bound = self.plan.bound
        if not bound:
            raise StreamingPlanError("plan has no operators")
        previous = None
        for binding in bound:
            operator = binding.operator
            if previous is None:
                if operator.inputs:
                    raise StreamingPlanError(
                        f"streaming requires a linear chain; first operator "
                        f"{operator.name!r} declares inputs {operator.inputs}"
                    )
            elif list(operator.inputs) != [previous.operator.name]:
                raise StreamingPlanError(
                    f"streaming requires a linear chain; operator "
                    f"{operator.name!r} does not consume exactly "
                    f"{previous.operator.name!r}"
                )
            previous = binding

        def streamable(binding) -> bool:
            return binding.module.chunk_capable and tree_parallel_safe(binding.module)

        start = next(
            (i for i, binding in enumerate(bound) if streamable(binding)), None
        )
        if start is None:
            raise StreamingPlanError(
                "no chunk-capable, parallel-safe operator to stream; use "
                "plan.execute() instead"
            )
        end = start
        while end < len(bound) and streamable(bound[end]):
            end += 1
        prefix, middle, suffix = bound[:start], bound[start:end], bound[end:]
        if self.sink is not None:
            for binding in suffix:
                if binding.operator.kind != "save":
                    raise StreamingPlanError(
                        f"sink mode skips the suffix, so every operator after "
                        f"the streamed core must be a pass-through save; "
                        f"{binding.operator.name!r} is "
                        f"{binding.operator.kind!r}"
                    )
        return prefix, middle, suffix

    # -- fault boundaries --------------------------------------------------------------

    def _announce(self, boundary: str) -> None:
        """Offer one named boundary to the armed crash point."""
        if self.crash is not None:
            self.crash.reached(boundary)

    # -- execution ---------------------------------------------------------------------

    def fingerprint(self, chunk_size: int) -> str:
        """Stable identity of (plan, chunking, source) for ledger resume.

        The caller's inputs are deliberately excluded (generator reprs are
        not stable); ``source_id`` carries the source's own fingerprint —
        e.g. :attr:`repro.datasets.streaming.StreamingERCorpus.fingerprint`.
        Worker count, window and attempt budget are operational knobs, not
        identity: a run may resume with any of them changed.
        """
        return fingerprint_payload(
            {
                "mode": "streaming",
                "plan": self.plan.fingerprint(None, chunk_size=chunk_size),
                "source": self.source_id,
            }
        )

    def execute(self, inputs: Any = None) -> RunReport:
        """Run the plan over a streaming source; returns a normal report.

        ``inputs`` is handed to the prefix (or, with no prefix, fed to the
        queue directly) and may be any iterable — a generator is never
        materialized.  Crash-resume: re-run with the same ledger path and
        the completed shard prefix replays at zero provider cost.
        """
        prefix, middle, suffix = self._split_chain()
        service = self.plan.context.service
        obs = getattr(service, "obs", None)
        tracer = obs.tracer if obs is not None and obs.tracer.enabled else None
        chunk_size = resolve_chunk_size(middle[0].module, self.chunk_size)
        self.ledger.begin(self.fingerprint(chunk_size), service)
        report = RunReport(pipeline_name=self.plan.pipeline.name)
        report.profile = RunProfile()
        self._report = report
        self._middle = middle
        self._module_by_op = {
            binding.operator.name: binding.module for binding in middle
        }
        for binding in middle:
            self._rows[binding.operator.name] = ProfileRow(
                module=binding.operator.name
            )
            self._resil[binding.operator.name] = {"quarantined": 0, "degraded": 0}
        values: dict[str, Any] = {}
        run_span = (
            tracer.span(self.plan.pipeline.name, "run", clock=service.clock)
            if tracer is not None
            else nullcontext()
        )
        with run_span:
            # Prefix: coordinator-side, re-executed deterministically on
            # resume (the ledger header rewound the cache to run start, so
            # a prefix with LLM calls re-pays and re-records identically).
            argument: Any = inputs or {}
            for binding in prefix:
                argument = run_operator_step(
                    binding, argument, report, report.profile, tracer, service
                )[0]
            # Re-warm the exact cache from the replayable shard prefix
            # *after* the prefix re-executed — the same temporal order the
            # original run inserted cache entries in.
            self.ledger.rewarm(service)
            for binding in middle:
                with binding.module._lock:
                    binding.module.stats.invocations += 1
            self._run_base = service.clock.now
            if argument is None:
                raise StreamingPlanError(
                    f"prefix operator "
                    f"{prefix[-1].operator.name if prefix else '<inputs>'} "
                    "produced no iterable for the streamed core"
                )
            self.queue = WorkQueue(
                iter_chunks(argument, chunk_size),
                window=self.window,
                ledger=self.ledger,
                max_attempts=self.max_attempts,
                metrics=obs.metrics if obs is not None else None,
            )
            self._run_workers()
            # Middle rows, in operator order, after every shard folded.
            for binding in middle:
                name = binding.operator.name
                row = self._rows[name]
                report.profile.rows.append(row)
                counts = self._resil[name]
                report.resilience[name] = OperatorResilience(
                    quarantined=counts["quarantined"],
                    degraded=counts["degraded"],
                    llm_retries=row.retries,
                    llm_failures=row.failures,
                )
            if self.sink is None:
                value: Any = self._output_buffer
                values[middle[-1].operator.name] = value
                for binding in suffix:
                    value = run_operator_step(
                        binding, value, report, report.profile, tracer, service
                    )[0]
                    values[binding.operator.name] = value
            else:
                summary = {
                    "records": self._sink_records,
                    "sha256": self._sink_digest.hexdigest(),
                }
                values[middle[-1].operator.name] = summary
                for binding in suffix:
                    values[binding.operator.name] = summary
        report.partial = bool(report.quarantine)
        totals = report.profile.totals()
        report.cost = CostSnapshot(
            served_calls=totals.provider_calls,
            cached_calls=totals.cached_calls,
            cost=totals.cost,
            latency_seconds=totals.latency_seconds,
            retries=totals.retries,
            failed_calls=totals.failures,
            distilled_calls=totals.distilled,
            # Distilled time under its own key, not folded into provider time.
            provider_seconds=totals.provider_seconds,
            distilled_seconds=totals.distilled_seconds,
        )
        for sink_op in self.plan.pipeline.sinks():
            if sink_op.name not in values:
                raise StreamingPlanError(
                    f"sink {sink_op.name!r} is inside the streamed core but "
                    "not its final operator; its value is never materialized"
                )
            report.outputs[sink_op.name] = values[sink_op.name]
        for binding in self.plan.bound:
            report.module_stats[binding.operator.name] = (
                binding.module.stats.to_text()
            )
        report.recovery = self._recovery_summary()
        return report

    def _recovery_summary(self) -> dict:
        """Operational (non-canonical) counters for ``report.recovery``."""
        stats = self.ledger.stats
        queue = self.queue
        return {
            "mode": "streaming",
            "resumed": stats.resumed,
            "shards": queue.n_shards if queue is not None else 0,
            "replayed_shards": stats.replayed_shards,
            "journaled_shards": stats.journaled_shards,
            "replayed_records": stats.replayed_records,
            "quarantined_shards": stats.quarantined_shards,
            "cache_entries_pruned": stats.cache_entries_pruned,
            "torn_bytes": stats.torn_bytes,
            "corrupt_lines": stats.corrupt_lines,
            "shard_failures": queue.shard_failures if queue is not None else 0,
            "inflight_peak_records": (
                queue.inflight_peak_records if queue is not None else 0
            ),
            # Pinned: there is no spill tier, but the frozen
            # benchmarks/e2e/workloads.py subscripts this key.
            "spill_peak_bytes": 0,
        }

    # -- worker pool -------------------------------------------------------------------

    def _run_workers(self) -> None:
        errors: list[BaseException] = []
        errors_lock = threading.Lock()

        def runner() -> None:
            try:
                self._worker_loop()
            except BaseException as error:  # noqa: BLE001 - propagated below
                with errors_lock:
                    errors.append(error)
                self.queue.abort()

        if self.workers == 1:
            runner()
        else:
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-stream"
            ) as pool:
                futures = [pool.submit(runner) for _ in range(self.workers)]
                for future in futures:
                    future.result()
        if errors:
            raise errors[0]

    def _worker_loop(self) -> None:
        """One worker: fold what is ready, then claim and execute a shard."""
        while True:
            self._fold_ready()
            kind, index = self.queue.next_task()
            if kind == "done":
                return
            if kind == "poison":
                self._poison_carried(index)
            elif kind == "run":
                self._execute_shard(index)

    def _execute_shard(self, index: int) -> None:
        """One shard attempt: ops -> journal -> complete."""
        service = self.plan.context.service
        queue = self.queue
        scopes: list = []
        op_name = self._middle[0].operator.name
        records = queue.records(index)
        try:
            self._announce("shard:claimed")
            current = records
            op_results = []
            for binding in self._middle:
                op_name = binding.operator.name
                with service.scoped(self._run_base) as scope:
                    # Registered on entry: an operator that raises after
                    # paying must still have its cache inserts rolled back.
                    scopes.append(scope)
                    outcome = binding.module.apply_chunk(current)
                op_results.append((op_name, scope, outcome))
                current = list(outcome.outputs)
            self._announce("shard:executed")
            self.ledger.record_shard(index, len(records), op_results, current)
            self._announce("shard:journaled")
            # Results first: once the shard is done another worker may fold it.
            with self._results_lock:
                self._results[index] = (op_results, current)
            queue.complete(index)
        except Exception as error:  # a CrashInjected unwinds past this
            for scope in scopes:
                service.rollback_scope(scope)
            verdict, attempts = queue.fail(index)
            self.ledger.record_fail(index, attempts, op_name, str(error))
            if verdict == "poison":
                self._quarantine(
                    PoisonInfo(
                        index=index,
                        n_records=len(records),
                        attempts=attempts,
                        op=op_name,
                        error=str(error),
                        records=records,
                    )
                )

    def _poison_carried(self, index: int) -> None:
        """Quarantine a shard whose attempt budget died in a prior run."""
        op_name, error = self.ledger.last_fail(index)
        records = self.queue.records(index)
        self._quarantine(
            PoisonInfo(
                index=index,
                n_records=len(records),
                attempts=self.ledger.attempts(index),
                op=op_name or self._middle[0].operator.name,
                error=error,
                records=records,
            )
        )

    def _quarantine(self, info: PoisonInfo) -> None:
        """Journal the poison verdict, then commit it in the queue."""
        self.ledger.record_poison(info)
        with self._results_lock:
            self._live_poisons[info.index] = info
        self.queue.confirm_poison(info.index)

    # -- the fold ----------------------------------------------------------------------

    def _fold_ready(self) -> None:
        """Fold every frontier shard that is ready, in shard order.

        Serialized by ``_fold_lock``: shard results enter the report, the
        shared clock and the per-operator accumulators in strict frontier
        order, which is what makes the canonical report independent of
        worker interleaving.
        """
        while True:
            with self._fold_lock:
                shard = self.queue.next_foldable()
                if shard is None:
                    return
                self._fold_shard(shard)
                self.queue.mark_folded(shard.index)

    def _fold_shard(self, shard: _Shard) -> None:
        service = self.plan.context.service
        obs = getattr(service, "obs", None)
        tracer = obs.tracer if obs is not None and obs.tracer.enabled else None
        report = self._report
        index = shard.index
        if shard.status == _POISONED:
            self._fold_poison(index, report, tracer, service)
            return
        with self._results_lock:
            live = self._results.pop(index, None)
        if live is not None:
            op_results, outputs = live
            ops = [
                ShardOpReplay(
                    name=name,
                    records=scope.records,
                    elapsed=scope.elapsed,
                    quarantine=outcome.quarantine,
                    degraded=outcome.degraded,
                )
                for name, scope, outcome in op_results
            ]
        else:
            replay = self.ledger.shard_replay(index)
            ops = replay.ops
            outputs = replay.outputs
            with self.ledger._lock:
                self.ledger.stats.replayed_shards += 1
                self.ledger.stats.replayed_records += sum(
                    len(op.records) for op in ops
                )
        quarantined = degraded = 0
        for op in ops:
            self._rows[op.name] = _add_rows(
                self._rows[op.name],
                profile_records(op.name, op.records, quarantined=len(op.quarantine)),
            )
            service.clock.advance(op.elapsed)
            module = self._module_by_op[op.name]
            with module._lock:
                module.stats.quarantined += len(op.quarantine)
                module.stats.degraded += op.degraded
            report.quarantine.extend(op.quarantine)
            counts = self._resil[op.name]
            counts["quarantined"] += len(op.quarantine)
            counts["degraded"] += op.degraded
            quarantined += len(op.quarantine)
            degraded += op.degraded
        if self.sink is None:
            self._output_buffer.extend(outputs)
        else:
            self.sink(list(outputs))
            self._sink_records += len(outputs)
            self._sink_digest.update(
                json.dumps(
                    encode_value(list(outputs)),
                    sort_keys=True,
                    ensure_ascii=False,
                    default=repr,
                ).encode("utf-8")
            )
        if tracer is not None:
            tracer.add_span(
                f"shard[{index}]",
                kind="shard",
                start=self._run_base,
                end=self._run_base,
                records=shard.n_records,
                outputs=len(outputs),
                quarantined=quarantined,
                degraded=degraded,
                replayed=live is None,
            )

    def _fold_poison(self, index, report, tracer, service) -> None:
        with self._results_lock:
            info = self._live_poisons.pop(index, None)
        if info is None:
            info = self.ledger.poison(index)
        message = (
            f"shard {index} poisoned after {info.attempts} attempt(s): "
            f"{info.error}"
        )
        module_name = info.op or self._middle[0].operator.name
        for record in info.records:
            report.quarantine.append(
                QuarantinedRecord(record=record, module_name=module_name,
                                  error=message)
            )
        module = self._module_by_op.get(module_name)
        if module is not None:
            with module._lock:
                module.stats.failures += info.attempts
                module.stats.quarantined += info.n_records
        counts = self._resil.get(module_name)
        if counts is not None:
            counts["quarantined"] += info.n_records
        with self.ledger._lock:
            self.ledger.stats.quarantined_shards += 1
        if tracer is not None:
            tracer.add_span(
                f"shard[{index}]",
                kind="shard",
                start=self._run_base,
                end=self._run_base,
                records=info.n_records,
                outputs=0,
                quarantined=info.n_records,
                degraded=0,
                poisoned=True,
            )
