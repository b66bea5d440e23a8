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
  completed shard (superseding the batch runtime's linear chunk log).  The
  header pins the run fingerprint, the virtual clock and the prompt-cache
  state exactly like :class:`~repro.core.runtime.checkpoint.RunCheckpoint`
  does.
- :class:`StreamingExecutor` — drives a compiled
  :class:`~repro.core.compiler.plan.PhysicalPlan` as an ordered map over
  shards: each pulled chunk is classified against the ledger (replay or
  live), one pool task runs a live shard once, and the calling thread
  folds the results into a normal :class:`RunReport` in shard order.  A
  shard that raises fails the run the way a raising chunk fails a batch
  run: its scopes are rolled back and the error propagates, while the
  shards already journalled stay resumable.  Per-record isolation is the
  operator's own ``error_policy``, alike in both engines.

Determinism contract (the streaming crash matrix pins this): a run
crashed and resumed at any shard boundary, at any worker count, cold or
warm cache, produces a byte-identical ``RunReport.canonical_json()``.
The mechanics:

- every per-(shard, op) scope starts at the same virtual base time, and
  the fold advances the shared clock by each scope's elapsed time in
  (shard, op) order — the same float addition sequence live or replayed;
- per-shard ledger records are **not** retained (that would be O(dataset)
  memory); instead the fold accumulates per-operator profile sums, which
  are invariant under coalescing races because every distinct prompt
  contributes exactly one originating record plus its exact-cache hits
  regardless of which shard produced them;
- a failed shard has its cache inserts **rolled back**
  (:meth:`~repro.llm.service.LLMService.rollback_scope`): no answer
  outlives a scope that no ledger line names.  Duplicate prompts should
  not straddle shards that can race with a failing one —
  :class:`repro.datasets.streaming.StreamingERCorpus` makes prompts
  corpus-unique for this reason.

Fault points (for :class:`~repro.llm.faults.CrashPoint`, armed on the
ledger): the per-shard boundaries ``shard:claimed``, ``shard:executed``,
``shard:journaled``.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.compiler.plan import (
    OperatorResilience,
    PhysicalPlan,
    RunReport,
    close_report,
    run_operator_step,
)
from repro.core.modules.base import ChunkOutcome
from repro.core.runtime.checkpoint import (
    CheckpointMismatchError,
    RunJournal,
    UnserializableValueError,
    _decode_records,
    _encode_slice,
    decode_value,
    encode_value,
    fingerprint_payload,
    replayed_slice,
)
from repro.core.runtime.scheduler import (
    chunkable,
    iter_chunks,
    ordered_map,
    require_positive,
    resolve_chunk_size,
)
from repro.llm.service import CallScope, LLMService
from repro.obs.profile import ProfileRow, RunProfile, profile_records

__all__ = [
    "SHARD_LEDGER_FORMAT_VERSION",
    "StreamingPlanError",
    "ShardLedgerStats",
    "ShardLedger",
    "StreamingExecutor",
]

#: Bumped whenever the shard-ledger schema changes; resume refuses others.
SHARD_LEDGER_FORMAT_VERSION = 2


class StreamingPlanError(RuntimeError):
    """The plan cannot run as a stream (non-linear, no chunkable core)."""


@dataclass
class ShardLedgerStats:
    """What one streaming execution replayed, journalled and repaired."""

    resumed: bool = False
    replayed_shards: int = 0
    journaled_shards: int = 0
    replayed_records: int = 0
    cache_entries_pruned: int = 0
    torn_bytes: int = 0
    corrupt_lines: int = 0


# -- the shard ledger ---------------------------------------------------------------


class ShardLedger(RunJournal):
    """Write-ahead shard journal: what a resumed stream replays.

    JSONL with three record types:

    - ``header`` and ``plan`` — the run-start lines every
      :class:`~repro.core.runtime.checkpoint.RunJournal` writes: the
      prompt-cache state digests before compile (resume rewinds the cache
      to them, exactly like the batch checkpoint, so a crashed run's extra
      cache appends cannot make the resumed report cheaper than the
      uninterrupted one), then the streaming run fingerprint and the
      virtual clock at begin.
    - ``shard`` — one completed shard: per-operator ledger records (the
      columnar, prefix-shared encoding shared with the batch journal),
      per-operator virtual elapsed time, quarantine and degraded counts,
      and the shard's final outputs.  Written *before* the shard's results
      reach the fold, so a folded shard is always resumable.
      Duplicate lines for one index are tolerated (a shard whose outputs
      did not serialize re-executes on resume and re-journals); the last
      line wins.

    A shard that raised left no line.
    """

    format_version = SHARD_LEDGER_FORMAT_VERSION
    noun = "ledger"
    label = "shard-ledger"
    mode = "streaming"

    def __init__(self, path: str | Path, resume: bool = True, crash=None):
        super().__init__(path, resume, crash)
        self.stats = ShardLedgerStats()
        self._shards: dict[int, dict] = {}

    def begin(self, fingerprint: str, service: LLMService) -> None:
        """Begin the journal (``RunJournal._begin``), then index ``shard`` lines."""
        for line in self._begin(fingerprint, service):
            if line.get("type") == "shard":
                self._shards[line["index"]] = line

    # -- resume-side reads ---------------------------------------------------------

    def has_shard(self, index: int) -> bool:
        """Whether a completed ``shard`` line exists for ``index``."""
        return index in self._shards

    def shard_n_records(self, index: int) -> int:
        """Journalled input-record count of shard ``index``."""
        return self._shards[index]["n_records"]

    def shard_replayable(self, index: int) -> bool:
        """Whether shard ``index``'s outputs round-tripped the journal."""
        return bool(self._shards[index].get("replayable", False))

    def max_recorded_index(self) -> int:
        """Largest journalled shard index (-1 if none)."""
        return max(self._shards, default=-1)

    def replayed_shard(
        self, index: int
    ) -> tuple[list[tuple[str, CallScope, ChunkOutcome]], list[Any]]:
        """Decode one journalled shard: ``(name, scope, outcome)`` ops, outputs."""
        raw = self._shards[index]
        ops = [(str(op["name"]), *replayed_slice(op)) for op in raw["ops"]]
        return ops, decode_value(raw["outputs"])

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
                    {"name": name, **_encode_slice(scope, outcome)}
                    for name, scope, outcome in op_results
                ],
                "outputs": encoded,
                "replayable": replayable,
            }
        )
        with self._lock:
            self.stats.journaled_shards += 1


# -- the streaming executor ----------------------------------------------------------


@dataclass
class _ShardRun:
    """One pulled chunk on its way through the pool to the fold.

    Classification sets ``records`` on a live shard (what the source
    produced, never mutated in place); a replay shard carries none.  The
    pool task fills in a live shard's ``ops`` — one ``(name, scope,
    outcome)`` per middle operator — and ``outputs``; the fold decodes a
    replay shard's from its ledger line.
    """

    index: int
    n_records: int
    records: list[Any] | None = None
    ops: list[tuple[str, CallScope, ChunkOutcome]] | None = None
    outputs: list[Any] | None = None


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
        sink: Callable[[list[Any]], Any] | None = None,
        source_id: str = "",
    ):
        if window is None:
            window = max(4 * workers, 8)
        require_positive(workers=workers, chunk_size=chunk_size, window=window)
        self.plan = plan
        self.ledger = ledger
        self.workers = workers
        self.chunk_size = chunk_size
        self.window = window
        self.sink = sink
        self.source_id = source_id
        # run state: _pull and the fold advance it, both on the calling thread
        self.n_shards = 0
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

    # -- execution ---------------------------------------------------------------------

    def fingerprint(self, chunk_size: int) -> str:
        """Stable identity of (plan, chunking, source) for ledger resume.

        The caller's inputs are deliberately excluded (generator reprs are
        not stable); ``source_id`` carries the source's own fingerprint —
        e.g. :attr:`repro.datasets.streaming.StreamingERCorpus.fingerprint`.
        Worker count and window are operational knobs, not identity: a run
        may resume with either changed.
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
        tracer = obs.tracer if obs is not None else None
        chunk_size = resolve_chunk_size(middle[0].module, self.chunk_size)
        self.ledger.begin(self.fingerprint(chunk_size), service)
        report = RunReport(pipeline_name=self.plan.pipeline.name)
        report.profile = RunProfile()
        self._report = report
        self._middle = middle
        self._module_by_op = {
            binding.operator.name: binding.module for binding in middle
        }
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
                )
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
                    )
                    values[binding.operator.name] = value
            else:
                summary = {
                    "records": self._sink_records,
                    "sha256": self._sink_digest.hexdigest(),
                }
                values[middle[-1].operator.name] = summary
                for binding in suffix:
                    values[binding.operator.name] = summary
        close_report(report)
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
            "cache_entries_pruned": stats.cache_entries_pruned,
            "torn_bytes": stats.torn_bytes,
            "corrupt_lines": stats.corrupt_lines,
            "inflight_peak_records": self.inflight_peak_records,
            # Pinned: there is no spill tier, but the frozen
            # benchmarks/e2e/workloads.py subscripts this key.
            "spill_peak_bytes": 0,
        }

    # -- the source side ---------------------------------------------------------------

    def _pull(self, chunks: Iterable[list[Any]]) -> Iterator[_ShardRun]:
        """Classify each chunk the pool pulls: replay or live.

        Runs on the calling thread, only as fast as the in-flight window
        admits shards.  A chunk whose index has a replayable ``shard`` line
        keeps only its size, checked against the ledger's — a resume
        re-iterates the (deterministic) source instead of persisting shard
        inputs.  A live chunk's records are held until its shard folds;
        ``inflight_peak_records`` is their high-watermark.
        """
        ledger = self.ledger
        for index, chunk in enumerate(chunks):
            self.n_shards = index + 1
            shard = _ShardRun(index, len(chunk))
            live = True
            if ledger.has_shard(index):
                covered = ledger.shard_n_records(index)
                if covered != len(chunk):
                    raise CheckpointMismatchError(
                        f"ledger shard {index} covered {covered} record(s); the "
                        f"source produced {len(chunk)}"
                    )
                # Outputs that did not serialize re-execute live.
                live = not ledger.shard_replayable(index)
            if live:
                shard.records = chunk
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
        """Run one live shard once; a replay shard passes through.

        The middle operators run in turn, each in its own call scope; the
        ``shard`` line is journalled and the results go to the fold.  A
        shard that raises has every scope it opened rolled back (the
        raising operator's included) and the error propagates, as a
        raising chunk does in :meth:`Scheduler.run_operator
        <repro.core.runtime.scheduler.Scheduler.run_operator>`.
        """
        if shard.records is None:
            return shard
        service = self.plan.context.service
        ledger = self.ledger
        scopes: list[CallScope] = []
        ops: list[tuple[str, CallScope, ChunkOutcome]] = []
        current = shard.records
        ledger.reached("shard:claimed")
        try:
            for binding in self._middle:
                with service.scoped(self._run_base) as scope:
                    # Registered on entry: an operator that raises after
                    # paying must still have its cache inserts rolled back.
                    scopes.append(scope)
                    outcome = binding.module.apply_chunk(current)
                ops.append((binding.operator.name, scope, outcome))
                current = list(outcome.outputs)
            ledger.reached("shard:executed")
            ledger.record_shard(shard.index, shard.n_records, ops, current)
        except Exception:  # a CrashInjected unwinds past this, as a kill would
            for scope in scopes:
                service.rollback_scope(scope)
            raise
        # Journalled: the ledger names what the shard cached, so nothing
        # rolls it back any more, and the fold needs no cache keys.
        for scope in scopes:
            scope.cache_keys.clear()
        ledger.reached("shard:journaled")
        shard.ops, shard.outputs = ops, current
        return shard

    # -- the fold ----------------------------------------------------------------------

    def _fold_shard(self, shard: _ShardRun) -> None:
        """Fold one shard into the report, on the calling thread.

        The pool yields shards in index order, so results enter the
        report, the shared clock and the per-operator
        accumulators in strict shard order — what makes the canonical
        report independent of worker interleaving.  Live and replayed
        shards fold alike, from their ``(name, scope, outcome)`` ops.
        """
        service = self.plan.context.service
        tracer = self._tracer
        report = self._report
        if shard.records is not None:
            self._held_records -= shard.n_records
        replayed = shard.ops is None
        if replayed:
            ops, outputs = self.ledger.replayed_shard(shard.index)
            self.ledger.stats.replayed_shards += 1
            self.ledger.stats.replayed_records += sum(
                len(scope.records) for _, scope, _ in ops
            )
        else:
            ops, outputs = shard.ops, shard.outputs
        quarantined = degraded = 0
        for name, scope, outcome in ops:
            row = profile_records(
                name, scope.records, quarantined=len(outcome.quarantine)
            )
            self._rows[name] += row
            service.clock.advance(scope.elapsed)
            module = self._module_by_op[name]
            with module._lock:
                module.stats.quarantined += len(outcome.quarantine)
                module.stats.degraded += outcome.degraded
            report.quarantine.extend(outcome.quarantine)
            counts = self._resil[name]
            counts["quarantined"] += len(outcome.quarantine)
            counts["degraded"] += outcome.degraded
            quarantined += len(outcome.quarantine)
            degraded += outcome.degraded
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
