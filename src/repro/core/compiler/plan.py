"""Physical plans: bound modules in execution order, plus run reports.

Execution is resilient by construction: operators whose modules run with a
non-``fail`` :class:`~repro.core.modules.base.ErrorPolicy` quarantine
poisoned records instead of aborting the DAG, and the run report always
carries the work that succeeded (``partial`` flags whether anything was
lost, ``quarantine`` says exactly what and why).

Every operator runs through the
:class:`~repro.core.runtime.scheduler.Scheduler`, which splits list inputs
into record chunks, runs them on a pool of ``workers`` threads (inline at
1, the default) and merges results in deterministic chunk order.  The
determinism contract — same seed, same fault spec, byte-identical results
at any worker count — is expressed through :meth:`RunReport.canonical_json`,
which excludes wall-clock measurements (they are observations about the
run, not results of it).
"""

from __future__ import annotations

import json
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.compiler.context import CompilerContext
from repro.core.dsl.operators import LogicalOperator
from repro.core.dsl.pipeline import Pipeline
from repro.core.modules.base import Module, QuarantinedRecord
from repro.core.optimizer.cost import CostSnapshot, CostTracker
from repro.obs.profile import RunProfile, profile_records

__all__ = [
    "BoundOperator",
    "OperatorResilience",
    "RunReport",
    "PhysicalPlan",
    "run_operator_step",
]

# Wall-clock fragment of ModuleStats.to_text(); stripped from canonical
# reports because host timing is nondeterministic by nature.
_WALL_TIME_RE = re.compile(r" time=\d+(?:\.\d+)?s")


@dataclass
class BoundOperator:
    """A logical operator bound to its physical module."""

    operator: LogicalOperator
    module: Module

    def describe(self) -> str:
        """EXPLAIN line: logical kind and physical binding."""
        return f"{self.operator.describe()}  =>  {self.module.describe()}"


@dataclass
class OperatorResilience:
    """What one operator absorbed during a run."""

    quarantined: int = 0
    degraded: int = 0
    llm_retries: int = 0
    llm_fallbacks: int = 0
    llm_failures: int = 0

    @property
    def any(self) -> bool:
        """Whether anything noteworthy happened."""
        return bool(
            self.quarantined
            or self.degraded
            or self.llm_retries
            or self.llm_fallbacks
            or self.llm_failures
        )

    def to_text(self) -> str:
        """One-line rendering."""
        return (
            f"quarantined={self.quarantined} degraded={self.degraded} "
            f"llm_retries={self.llm_retries} llm_fallbacks={self.llm_fallbacks} "
            f"llm_failures={self.llm_failures}"
        )


@dataclass
class RunReport:
    """What one plan execution did, what it cost, and what it absorbed."""

    pipeline_name: str
    outputs: dict[str, Any] = field(default_factory=dict)
    module_stats: dict[str, str] = field(default_factory=dict)
    cost: CostSnapshot | None = None
    partial: bool = False
    quarantine: list[QuarantinedRecord] = field(default_factory=list)
    resilience: dict[str, OperatorResilience] = field(default_factory=dict)
    profile: RunProfile | None = None
    #: Operational recovery counters (checkpoint replay, torn tails, shard
    #: failures).  Deliberately **excluded** from :meth:`canonical_dict`: a
    #: resumed run must produce a byte-identical canonical report, and these
    #: counters are exactly what differs between the crashed and the
    #: uninterrupted execution.
    recovery: dict[str, Any] | None = None

    def to_text(self) -> str:
        """Readable execution summary."""
        lines = [f"run of {self.pipeline_name!r}:"]
        if self.partial:
            lines[0] += f"  [PARTIAL: {len(self.quarantine)} record(s) quarantined]"
        for name, stats in self.module_stats.items():
            lines.append(f"  {name}: {stats}")
        for name, counters in self.resilience.items():
            if counters.any:
                lines.append(f"  {name} resilience: {counters.to_text()}")
        if self.cost is not None:
            lines.append(f"  llm: {self.cost.to_text()}")
        if self.profile is not None and self.profile.rows:
            lines.append("  profile:")
            for row_line in self.profile.to_table().splitlines():
                lines.append(f"    {row_line}")
        if self.recovery:
            interesting = {k: v for k, v in self.recovery.items() if v}
            if interesting:
                rendered = ", ".join(
                    f"{key}={value}" for key, value in sorted(interesting.items())
                )
                lines.append(f"  recovery: {rendered}")
        return "\n".join(lines)

    def canonical_dict(self) -> dict[str, Any]:
        """The run's *results*, with wall-clock measurements stripped.

        This is the determinism contract of the parallel scheduler: two
        runs of the same plan on the same inputs (same seed, same fault
        spec) must produce equal canonical dicts at any worker count.
        Wall-clock module timings are excluded because they measure the
        host machine, not the computation; virtual-clock latency totals
        *are* included (they are part of the simulated semantics).
        """
        return {
            "pipeline": self.pipeline_name,
            "outputs": self.outputs,
            "partial": self.partial,
            "quarantine": [
                {
                    "module": q.module_name,
                    "record": repr(q.record),
                    "error": q.error,
                }
                for q in self.quarantine
            ],
            "resilience": {
                name: {
                    "quarantined": c.quarantined,
                    "degraded": c.degraded,
                    "llm_retries": c.llm_retries,
                    "llm_fallbacks": c.llm_fallbacks,
                    "llm_failures": c.llm_failures,
                }
                for name, c in self.resilience.items()
            },
            "module_stats": {
                name: _WALL_TIME_RE.sub("", stats)
                for name, stats in self.module_stats.items()
            },
            "cost": None
            if self.cost is None
            else {
                "served_calls": self.cost.served_calls,
                "cached_calls": self.cost.cached_calls,
                "cost": round(self.cost.cost, 10),
                "latency_seconds": round(self.cost.latency_seconds, 9),
                "retries": self.cost.retries,
                "fallback_calls": self.cost.fallback_calls,
                "failed_calls": self.cost.failed_calls,
                "distilled_calls": self.cost.distilled_calls,
                "provider_seconds": round(self.cost.provider_seconds, 9),
                "distilled_seconds": round(self.cost.distilled_seconds, 9),
            },
            # Derived from canonicalized ledger slices, so deterministic at
            # any worker count — safe inside the determinism contract.
            "profile": None if self.profile is None else self.profile.to_dict(),
        }

    def canonical_json(self) -> str:
        """Byte-comparable JSON rendering of :meth:`canonical_dict`."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, ensure_ascii=False, default=repr
        )


class PhysicalPlan:
    """An executable plan produced by the compiler.

    ``execute`` evaluates the DAG in topological order.  Operators with no
    inputs (sources) receive the caller's ``inputs`` dict; single-input
    operators receive their upstream value; multi-input operators receive a
    tuple of upstream values in declaration order.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        bound: list[BoundOperator],
        context: CompilerContext,
    ):
        self.pipeline = pipeline
        self.bound = bound
        self.context = context
        self._by_name = {b.operator.name: b for b in bound}

    def module(self, operator_name: str) -> Module:
        """The physical module bound to ``operator_name``."""
        return self._by_name[operator_name].module

    def fingerprint(
        self,
        inputs: dict[str, Any] | None = None,
        chunk_size: int | None = None,
    ) -> str:
        """Stable identity of (plan, inputs, chunking) for checkpoint resume.

        Built from identity-stable parts only — operator names/kinds/
        wiring, module names/types, the provider's cache identity, the
        requested ``chunk_size`` and a digest of the caller's inputs.
        Deliberately *not* from ``describe()`` strings, which embed mutable
        counters (e.g. a fallback count) and would change between the
        original run and the recompiled resume.  The worker count is
        excluded: the determinism contract makes it immaterial to results,
        so a run checkpointed at 8 workers may resume at 1.
        """
        from repro.core.runtime.checkpoint import digest_inputs, fingerprint_payload

        service = self.context.service
        identity = {
            "pipeline": self.pipeline.name,
            "operators": [
                {
                    "name": binding.operator.name,
                    "kind": binding.operator.kind,
                    "inputs": list(binding.operator.inputs),
                    "module": binding.module.name,
                    "module_type": type(binding.module).__name__,
                    "config": binding.module.config_identity(),
                }
                for binding in self.bound
            ],
            "provider": service.provider.cache_identity(),
            "chunk_size": chunk_size,
            "inputs": digest_inputs(inputs),
        }
        return fingerprint_payload(identity)

    def execute(
        self,
        inputs: dict[str, Any] | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        checkpoint: "Any | None" = None,
        cancel: "Any | None" = None,
    ) -> RunReport:
        """Run the plan; returns a :class:`RunReport` with sink outputs.

        Records a module quarantined (under a ``skip_record``/``degrade``
        error policy) are collected into ``report.quarantine`` and flagged
        via ``report.partial`` — callers always receive the work that
        succeeded rather than an exception that discards it.

        Operators run through the scheduler, which chunks list inputs
        (``chunk_size`` records per chunk), runs up to ``workers`` chunks
        at once (``None`` means 1: inline, no threads) and merges results
        in deterministic chunk order — ``workers=1`` and ``workers=8``
        produce identical :meth:`RunReport.canonical_json` output.

        ``checkpoint`` (a :class:`~repro.core.runtime.checkpoint.
        RunCheckpoint`) turns execution crash-safe: every finished chunk
        and operator is journalled write-ahead, and a resume replays the
        journalled prefix verbatim — zero provider calls for completed
        work — before executing only what remains, producing a report
        byte-identical to an uninterrupted run.

        ``cancel`` (a :class:`~repro.core.runtime.cancel.CancelToken`)
        enables cooperative cancellation: the token is checked between
        operators and before every chunk, and raises
        :class:`~repro.core.runtime.cancel.JobCancelled` at the first
        boundary after it fires — so a checkpointed run that is cancelled
        leaves a valid replayable journal prefix behind (it is resumable,
        not lost).
        """
        # Imported lazily: the runtime package imports the system facade,
        # which imports this module.
        from repro.core.runtime.scheduler import Scheduler

        scheduler = Scheduler(
            workers=workers or 1, chunk_size=chunk_size, cancel=cancel
        )
        inputs = inputs or {}
        values: dict[str, Any] = {}
        report = RunReport(pipeline_name=self.pipeline.name)
        service = self.context.service
        if checkpoint is not None:
            # Before any spans or cost marks: validates the fingerprint
            # and the clock, rewinds the cache to the journalled run-start
            # state, and indexes the replayable prefix.
            checkpoint.begin(
                self.fingerprint(inputs, chunk_size=chunk_size), service
            )
        obs = getattr(service, "obs", None)
        tracer = obs.tracer if obs is not None and obs.tracer.enabled else None
        profile = RunProfile()
        run_span = (
            tracer.span(self.pipeline.name, "run", clock=service.clock)
            if tracer is not None
            else nullcontext()
        )
        with CostTracker(service) as tracker, run_span:
            for op_index, binding in enumerate(self.bound):
                if cancel is not None:
                    cancel.raise_if_cancelled()
                operator = binding.operator
                if not operator.inputs:
                    argument: Any = inputs
                elif len(operator.inputs) == 1:
                    argument = values[operator.inputs[0]]
                else:
                    argument = tuple(values[name] for name in operator.inputs)
                stats_before = _stats_snapshot(binding.module)
                replay = None
                op_ctx = None
                if checkpoint is not None:
                    replay = checkpoint.operator_replay(op_index, operator.name)
                    if replay is None:
                        op_ctx = checkpoint.operator_context(
                            op_index, operator.name
                        )
                journalled = None
                if replay is not None:
                    run = partial(
                        _replay_operator, checkpoint, binding.module, replay,
                        service, tracer,
                    )
                    journalled = (list(replay.quarantine), replay.tree_degraded)
                else:
                    run = partial(
                        scheduler.run_operator, binding.module,
                        service=service, op_ctx=op_ctx,
                    )
                values[operator.name], slice_, drained, degraded = (
                    run_operator_step(
                        binding, argument, report, profile, tracer, service,
                        run=run, journalled=journalled,
                    )
                )
                if checkpoint is not None and replay is None:
                    checkpoint.commit_operator(
                        op_index,
                        operator.name,
                        records=list(slice_),
                        clock_end=service.clock.now,
                        outputs=values[operator.name],
                        quarantine=drained,
                        stats_delta=_stats_delta(
                            stats_before, _stats_snapshot(binding.module)
                        ),
                        tree_degraded=degraded,
                        chunk_summaries=(
                            op_ctx.chunk_summaries if op_ctx is not None else None
                        )
                        or None,
                        service=service,
                        records_in_chunks=(
                            op_ctx.records_in_chunks if op_ctx is not None else False
                        ),
                        outputs_in_chunks=(
                            op_ctx.outputs_in_chunks if op_ctx is not None else False
                        ),
                    )
        report.partial = bool(report.quarantine)
        report.cost = tracker.snapshot
        report.profile = profile
        if checkpoint is not None:
            stats = checkpoint.stats
            report.recovery = {
                "mode": "checkpoint",
                "resumed": stats.resumed,
                "replayed_operators": stats.replayed_operators,
                "replayed_chunks": stats.replayed_chunks,
                "journaled_chunks": stats.journaled_chunks,
                "replayed_records": stats.replayed_records,
                "cache_entries_pruned": stats.cache_entries_pruned,
                "torn_bytes": stats.torn_bytes,
            }
        for sink in self.pipeline.sinks():
            report.outputs[sink.name] = values[sink.name]
        for binding in self.bound:
            report.module_stats[binding.operator.name] = binding.module.stats.to_text()
        return report

    def to_text(self) -> str:
        """EXPLAIN rendering of the full plan."""
        lines = [f"physical plan for {self.pipeline.name!r}:"]
        for binding in self.bound:
            lines.append(f"  {binding.describe()}")
        return "\n".join(lines)


def run_operator_step(
    binding: BoundOperator,
    argument: Any,
    report: RunReport,
    profile: RunProfile,
    tracer,
    service,
    run=None,
    journalled=None,
):
    """Run one operator coordinator-side and book it into ``report``.

    The one step both engines share — every operator of
    :meth:`PhysicalPlan.execute` and the streaming executor's prefix and
    suffix: opens the phase and module spans, produces the operator's
    value, drains the module tree's quarantine, measures its degraded
    delta, derives the ``llm_call`` spans and the profile row from the
    ledger slice the operator appended, and records its
    :class:`OperatorResilience`.

    ``run(argument)`` produces the value; it defaults to the module's own
    ``run`` (the batch engine passes the scheduler's chunked runner).
    ``journalled`` is set only for a checkpoint replay, whose ``run``
    re-applies a committed operator's effects: the ``(quarantine,
    degraded)`` the journal holds, used instead of draining and measuring
    a module that did not execute.

    Returns ``(value, ledger slice, drained quarantine, degraded)``.
    """
    operator = binding.operator
    module = binding.module
    ledger_mark = len(service.records)
    degraded_before = _tree_degraded(module)
    module_start = service.clock.now
    phase_span = (
        tracer.span(
            operator.name, "phase", clock=service.clock,
            operator_kind=operator.kind,
        )
        if tracer is not None
        else nullcontext()
    )
    with phase_span:
        module_span = (
            tracer.span(
                module.name, "module", clock=service.clock,
                module_type=type(module).__name__,
            )
            if tracer is not None
            else nullcontext()
        )
        with module_span as span:
            value = (run or module.run)(argument)
            if journalled is not None:
                drained, degraded = journalled
            else:
                drained = module.drain_quarantine()
                degraded = _tree_degraded(module) - degraded_before
            # The slice is canonical here (the scheduler merged and
            # canonicalized; a whole-input ``module.run`` is ordered by
            # construction; replay re-inserts the canonical slice), so
            # spans and profile rows are deterministic at any worker count.
            slice_ = service.records[ledger_mark:]
            if tracer is not None:
                span.set("quarantined", len(drained))
                span.set("degraded", degraded)
        if tracer is not None:
            _add_call_spans(span, slice_, module_start)
    report.quarantine.extend(drained)
    row = profile_records(operator.name, slice_, quarantined=len(drained))
    profile.rows.append(row)
    report.resilience[operator.name] = OperatorResilience(
        quarantined=len(drained),
        degraded=degraded,
        llm_retries=row.retries,
        llm_fallbacks=row.fallbacks,
        llm_failures=row.failures,
    )
    return value, slice_, drained, degraded


def _replay_operator(checkpoint, module, replay, service, tracer, _argument):
    """Re-apply a committed operator's journalled effects verbatim.

    Outputs, ledger slice, clock, stats and cache warmth come back at zero
    provider cost; the journalled chunk summaries become ``chunk`` spans.
    """
    start = service.clock.now
    checkpoint.apply_operator_replay(module, replay, service)
    if tracer is not None:
        for summary in replay.chunk_summaries:
            tracer.add_span(
                f"chunk[{summary['chunk']}]",
                kind="chunk",
                start=start,
                records=summary["records"],
                outputs=summary["outputs"],
                quarantined=summary["quarantined"],
                degraded=summary["degraded"],
            )
    return replay.outputs


def _add_call_spans(parent, records, module_start: float) -> None:
    """Attach one ``llm_call`` span per canonical ledger record.

    Calls are not traced live — request coalescing makes the winning thread
    racy — but derived from the operator's canonicalized ledger slice, laid
    out on the sequential virtual timeline under the (already closed)
    module span: each span starts where the previous one's latency ended.
    Intervals are clamped to the parent's: the scheduler sums per-scope
    elapsed times first, so the module's clock total can differ from the
    cumulative per-record sum by float-rounding epsilons.
    """
    from repro.obs.trace import Span

    cursor = module_start
    for record in records:
        start = min(cursor, parent.end)
        cursor += record.latency_seconds
        parent.children.append(
            Span(
                name=f"llm[{record.purpose or record.skill or 'call'}]",
                kind="llm_call",
                start=start,
                end=min(cursor, parent.end),
                attributes={
                    "provenance": record.provenance,
                    "outcome": record.outcome,
                    "cached": record.cached,
                    "cost": record.cost,
                    "prompt_tokens": record.prompt_tokens,
                    "completion_tokens": record.completion_tokens,
                    "latency_seconds": record.latency_seconds,
                    "retries": record.retries,
                    "skill": record.skill,
                },
            )
        )


def _stats_snapshot(module: Module) -> dict[str, int]:
    """The module's deterministic counters (wall time deliberately excluded)."""
    stats = module.stats
    return {
        "invocations": stats.invocations,
        "failures": stats.failures,
        "quarantined": stats.quarantined,
        "degraded": stats.degraded,
    }


def _stats_delta(
    before: dict[str, int], after: dict[str, int]
) -> dict[str, int]:
    """Per-counter change over one operator, journalled for stats replay."""
    return {key: after[key] - before[key] for key in after}


def _tree_degraded(module: Module) -> int:
    """Sum ``stats.degraded`` over a module and its wrapped children."""
    return module.stats.degraded + sum(
        _tree_degraded(child) for _, child in module._children()
    )
