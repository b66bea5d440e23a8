"""Shard ledger and pipelined streaming executor.

The batch runtime (:mod:`repro.core.runtime.scheduler` +
:mod:`repro.core.runtime.checkpoint`) materializes every operator's full
input before chunking it, so a million-record curation run holds the whole
dataset — and every intermediate — in memory.  This module is the
out-of-core counterpart: datasets stay *iterators*, the streamed operators
run fixed-size **shards** pulled lazily from the source through the
scheduler's bounded in-order pool
(:func:`~repro.core.runtime.scheduler.ordered_map`), and peak RSS is
bounded at O(chunk_size x window) instead of O(dataset).

Two pieces:

- :class:`ShardLedger` — the write-ahead journal.  One ``shard`` line per
  completed shard (superseding the batch runtime's linear chunk log), plus
  ``fail`` lines for deterministic shard failures and a ``poison`` line
  when a shard exhausts its attempt budget.  The header pins the run
  fingerprint, the virtual clock and the prompt-cache state exactly like
  :class:`~repro.core.runtime.checkpoint.RunCheckpoint` does.
- :class:`StreamingExecutor` — drives a compiled
  :class:`~repro.core.compiler.plan.PhysicalPlan` as an ordered map over
  shards: each pulled chunk is classified against the ledger (replay,
  poison or live), one pool task runs every attempt of a live shard — a
  shard whose execution raises is retried at once and **quarantined as
  poison** after ``max_attempts``, reported, never aborting the run — and
  the calling thread folds the results into a normal :class:`RunReport`
  in shard order.

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
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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
    chunkable,
    iter_chunks,
    ordered_map,
    resolve_chunk_size,
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
    "StreamingExecutor",
]

#: Bumped whenever the shard-ledger schema changes; resume refuses others.
SHARD_LEDGER_FORMAT_VERSION = 1

#: Failed executions before a shard is quarantined as poison.
DEFAULT_MAX_ATTEMPTS = 3


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
    """Write-ahead shard journal: what a resumed stream replays.

    JSONL with four record types:

    - ``header`` — written once, before any work: the streaming
      run fingerprint, the virtual clock at begin, and the prompt-cache
      state digests (resume rewinds the cache to them, exactly like the
      batch checkpoint, so a crashed run's extra cache appends cannot make
      the resumed report cheaper than the uninterrupted one).
    - ``shard`` — one completed shard: per-operator ledger records (the
      columnar, prefix-shared encoding shared with the batch journal),
      per-operator virtual elapsed time, quarantine and degraded counts,
      and the shard's final outputs.  Written *before* the shard's results
      reach the fold, so a folded shard is always resumable.
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


# -- the streaming executor ----------------------------------------------------------


@dataclass
class _ShardRun:
    """One pulled chunk on its way through the pool to the fold.

    Classification sets ``records`` on a live shard (what the source
    produced, shared by every attempt and never mutated in place) and
    ``poison`` on one the ledger already quarantined; a replay shard
    carries neither.  The pool task fills in ``ops`` and ``outputs``, or
    ``poison`` once the attempt budget is spent.
    """

    index: int
    n_records: int
    records: list[Any] | None = None
    attempts: int = 0  # executions that raised, this run and prior ones
    failures: int = 0  # of which in this run
    ops: list[ShardOpReplay] | None = None
    outputs: list[Any] | None = None
    poison: PoisonInfo | None = None


class StreamingExecutor:
    """Pipelined, memory-bounded execution of a compiled physical plan.

    The plan must be a **linear chain** with a chunk-capable, parallel-safe
    core: a (possibly empty) coordinator-side *prefix* (e.g. a lazy load),
    a maximal run of chunk-capable *middle* operators streamed shard by
    shard, and a (possibly empty) coordinator-side *suffix* (e.g. a save).
    The prefix's output is pulled as an iterator and is never materialized
    by the executor; keep prefix transforms lazy and the whole run is
    O(window x chunk) resident.

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
        if window is None:
            window = max(4 * workers, 8)
        # Here, before execute() writes the ledger header: a bad value must
        # not leave a journal behind, and a bad chunk_size would be pinned
        # into its fingerprint.
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if window < 1:
            raise ValueError("window must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.plan = plan
        self.ledger = ledger
        self.workers = workers
        self.chunk_size = chunk_size
        self.window = window
        self.max_attempts = max_attempts
        self.sink = sink
        self.source_id = source_id
        self.crash = crash
        # run state: _pull and the fold advance it, both on the calling thread
        self.n_shards = 0
        self.shard_failures = 0
        self.inflight_peak_records = 0
        self._held_records = 0
        self._rows: dict[str, ProfileRow] = {}
        self._resil: dict[str, dict[str, int]] = {}
        self._output_buffer: list[Any] = []
        self._sink_records = 0
        self._sink_digest = hashlib.sha256()
        self._run_base = 0.0

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

        start = next(
            (i for i, binding in enumerate(bound) if chunkable(binding.module)),
            None,
        )
        if start is None:
            raise StreamingPlanError(
                "no chunk-capable, parallel-safe operator to stream; use "
                "plan.execute() instead"
            )
        end = start
        while end < len(bound) and chunkable(bound[end].module):
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

        ``inputs`` is handed to the prefix (or, with no prefix, chunked
        directly) and may be any iterable — a generator is never
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
        self._metrics = obs.metrics if obs is not None else None
        self._tracer = tracer
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
            for shard in ordered_map(
                self._run_shard,
                self._pull(iter_chunks(argument, chunk_size)),
                workers=self.workers,
                window=self.window,
            ):
                self._fold_shard(shard)
                del shard  # workers=1 holds one shard: none past its fold
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
        return {
            "mode": "streaming",
            "resumed": stats.resumed,
            "shards": self.n_shards,
            "replayed_shards": stats.replayed_shards,
            "journaled_shards": stats.journaled_shards,
            "replayed_records": stats.replayed_records,
            "quarantined_shards": stats.quarantined_shards,
            "cache_entries_pruned": stats.cache_entries_pruned,
            "torn_bytes": stats.torn_bytes,
            "corrupt_lines": stats.corrupt_lines,
            "shard_failures": self.shard_failures,
            "inflight_peak_records": self.inflight_peak_records,
            # Pinned: there is no spill tier, but the frozen
            # benchmarks/e2e/workloads.py subscripts this key.
            "spill_peak_bytes": 0,
        }

    # -- the source side ---------------------------------------------------------------

    def _pull(self, chunks: Iterable[list[Any]]) -> Iterator[_ShardRun]:
        """Classify each chunk the pool pulls: replay, poison or live.

        Runs on the calling thread, only as fast as the in-flight window
        admits shards.  A chunk whose index has a replayable ``shard``
        line or a ``poison`` line keeps only its size, checked against the
        ledger's — a resume re-iterates the (deterministic) source instead
        of persisting shard inputs.  A live chunk's records are held until
        its shard folds; ``inflight_peak_records`` is their high-watermark.
        """
        ledger = self.ledger
        for index, chunk in enumerate(chunks):
            self.n_shards = index + 1
            shard = _ShardRun(index, len(chunk))
            if ledger.has_shard(index):
                kind, covered = "shard", ledger.shard_n_records(index)
                # Outputs that did not serialize re-execute live.
                live = not ledger.shard_replayable(index)
            else:
                shard.poison = ledger.poison(index)
                kind, live = "poison", shard.poison is None
                covered = len(chunk) if live else shard.poison.n_records
            if covered != len(chunk):
                raise CheckpointMismatchError(
                    f"ledger {kind} {index} covered {covered} record(s); the "
                    f"source produced {len(chunk)}"
                )
            if live:
                shard.records = chunk
                shard.attempts = ledger.attempts(index)
                self._held_records += len(chunk)
                self.inflight_peak_records = max(
                    self.inflight_peak_records, self._held_records
                )
            yield shard
            del shard, chunk  # the fold is the last to hold them
        recorded = ledger.max_recorded_index()
        if recorded >= self.n_shards:
            raise CheckpointMismatchError(
                f"ledger mentions shard {recorded} but the source "
                f"produced only {self.n_shards} shard(s); the source "
                "changed under a reused ledger"
            )

    # -- one pool task -----------------------------------------------------------------

    def _run_shard(self, shard: _ShardRun) -> _ShardRun:
        """Every attempt of one live shard; replay and poison shards pass.

        An attempt runs the middle operators, journals the ``shard`` line
        and hands the results to the fold.  One that raises has every
        scope it opened rolled back (the raising operator's included),
        journals a ``fail`` line and is retried at once.  Once the budget
        is spent the poison verdict is journalled — without another
        execution when a prior run already spent it (its crash landed
        between the final fail line and the poison line), so the resumed
        verdict matches the uninterrupted one byte for byte.
        """
        if shard.records is None:
            return shard
        service = self.plan.context.service
        op_name, error = self.ledger.last_fail(shard.index)
        while shard.attempts < self.max_attempts:
            scopes: list = []
            op_results = []
            current = shard.records
            try:
                self._announce("shard:claimed")
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
                self.ledger.record_shard(
                    shard.index, shard.n_records, op_results, current
                )
                self._announce("shard:journaled")
            except Exception as failure:  # a CrashInjected unwinds past this
                for scope in scopes:
                    service.rollback_scope(scope)
                shard.attempts += 1
                shard.failures += 1
                error = str(failure)
                self.ledger.record_fail(shard.index, shard.attempts, op_name, error)
                if self._metrics is not None:
                    self._metrics.counter("workqueue.shard_failures").inc()
                continue
            shard.ops = [
                ShardOpReplay(
                    name=name,
                    records=scope.records,
                    elapsed=scope.elapsed,
                    quarantine=outcome.quarantine,
                    degraded=outcome.degraded,
                )
                for name, scope, outcome in op_results
            ]
            shard.outputs = current
            return shard
        shard.poison = PoisonInfo(
            index=shard.index,
            n_records=shard.n_records,
            attempts=shard.attempts,
            op=op_name or self._middle[0].operator.name,
            error=error,
            records=shard.records,
        )
        self.ledger.record_poison(shard.poison)
        if self._metrics is not None:
            self._metrics.counter("workqueue.poisoned").inc()
        return shard

    # -- the fold ----------------------------------------------------------------------

    def _fold_shard(self, shard: _ShardRun) -> None:
        """Fold one shard into the report, on the calling thread.

        The pool yields shards in index order, so results enter the
        report, the shared clock and the per-operator accumulators in
        strict shard order — what makes the canonical report independent
        of worker interleaving.
        """
        service = self.plan.context.service
        tracer = self._tracer
        report = self._report
        self.shard_failures += shard.failures
        if shard.records is not None:
            self._held_records -= shard.n_records
        if shard.poison is not None:
            self._fold_poison(shard.poison, report, tracer)
            return
        replayed = shard.ops is None
        if replayed:
            replay = self.ledger.shard_replay(shard.index)
            ops, outputs = replay.ops, replay.outputs
            self.ledger.stats.replayed_shards += 1
            self.ledger.stats.replayed_records += sum(len(op.records) for op in ops)
        else:
            ops, outputs = shard.ops, shard.outputs
        quarantined = degraded = 0
        for op in ops:
            self._rows[op.name] += profile_records(
                op.name, op.records, quarantined=len(op.quarantine)
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
                f"shard[{shard.index}]",
                kind="shard",
                start=self._run_base,
                end=self._run_base,
                records=shard.n_records,
                outputs=len(outputs),
                quarantined=quarantined,
                degraded=degraded,
                replayed=replayed,
            )

    def _fold_poison(self, info: PoisonInfo, report, tracer) -> None:
        message = (
            f"shard {info.index} poisoned after {info.attempts} attempt(s): "
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
        self.ledger.stats.quarantined_shards += 1
        if tracer is not None:
            tracer.add_span(
                f"shard[{info.index}]",
                kind="shard",
                start=self._run_base,
                end=self._run_base,
                records=info.n_records,
                outputs=0,
                quarantined=info.n_records,
                degraded=0,
                poisoned=True,
            )
