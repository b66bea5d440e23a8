"""The :class:`LinguaManga` facade.

One object that owns the LLM service, the local database, the compiler and
the template library — the "system" a user interacts with in the paper's
demonstration.  All three example applications in ``examples/`` drive the
system exclusively through this facade.
"""

from __future__ import annotations

from typing import Any

from repro.core.compiler.compiler import LinguaMangaCompiler
from repro.core.compiler.context import CompilerContext
from repro.core.compiler.plan import PhysicalPlan, RunReport
from repro.core.dsl.builder import PipelineBuilder
from repro.core.dsl.parser import parse_pipeline
from repro.core.dsl.pipeline import Pipeline
from repro.core.optimizer.connector import TabularConnector
from repro.core.templates.library import (
    Template,
    available_templates,
    get_template,
    search_templates,
)
from repro.llm.knowledge import KnowledgeBase
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService, UsageSummary
from repro.storage.database import Database
from repro.storage.table import Table

__all__ = ["LinguaManga"]


class LinguaManga:
    """The Lingua Manga system: DSL + compiler + optimizer + templates.

    Parameters
    ----------
    service:
        An :class:`LLMService`; a fresh simulated one is created by default.
    database:
        The local relational store the connector queries.
    knowledge:
        Knowledge-base overrides for the simulated provider (ignored when a
        custom ``service`` is given).
    cache_path:
        Optional JSONL journal for the prompt cache (ignored when a custom
        ``service`` is given): answers persist across processes, so a
        second run of the same app warm-starts instead of re-paying the
        provider.
    obs:
        Optional :class:`repro.obs.Observability` hub.  When given, every
        layer — service, cache, scheduler, modules, plan
        executor — publishes spans and metrics into it, and run reports
        carry a per-module profile.  ``None`` (the default) collects
        nothing and adds no overhead.
    """

    def __init__(
        self,
        service: LLMService | None = None,
        database: Database | None = None,
        knowledge: KnowledgeBase | None = None,
        cache_path: str | None = None,
        obs: "Any | None" = None,
    ):
        if service is None:
            provider = SimulatedProvider(knowledge=knowledge)
            service = LLMService(provider, cache_path=cache_path, obs=obs)
        elif obs is not None:
            service.attach_obs(obs)
        self.service = service
        self.database = database or Database()
        self.context = CompilerContext(service=self.service, database=self.database)
        self.compiler = LinguaMangaCompiler(self.context)

    @property
    def obs(self):
        """The attached observability hub, if any."""
        return self.service.obs

    # -- pipeline construction ----------------------------------------------------

    def builder(self, name: str, description: str = "") -> PipelineBuilder:
        """Start a fluent pipeline builder."""
        return PipelineBuilder(name, description)

    def parse(self, dsl_text: str) -> Pipeline:
        """Parse a pipeline from DSL text."""
        return parse_pipeline(dsl_text)

    # -- templates -------------------------------------------------------------------

    def templates(self) -> list[Template]:
        """All built-in templates."""
        return available_templates()

    def search_templates(self, query: str, limit: int = 3) -> list[tuple[Template, float]]:
        """Rank templates against a natural-language need."""
        return search_templates(query, limit)

    def template(self, name: str) -> Template:
        """Fetch a template by name."""
        return get_template(name)

    # -- compile and run ---------------------------------------------------------------

    def compile(self, pipeline: Pipeline, optimize: bool = False) -> PhysicalPlan:
        """Compile a logical pipeline into a physical plan.

        ``optimize=True`` runs the logical rewriter first.
        """
        return self.compiler.compile(pipeline, optimize=optimize)

    def run(
        self,
        pipeline: Pipeline,
        inputs: dict[str, Any] | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        checkpoint_path: "str | Any | None" = None,
        resume: bool = True,
        checkpoint: "Any | None" = None,
        cancel: "Any | None" = None,
    ) -> RunReport:
        """Compile and execute in one step.

        Every operator runs through the scheduler (see
        :meth:`repro.core.compiler.plan.PhysicalPlan.execute`): record
        chunks of ``chunk_size``, up to ``workers`` of them at once
        (``None`` means 1), merged in deterministic chunk order.

        ``checkpoint_path`` makes the run crash-safe: execution keeps a
        write-ahead journal beside the cache journal, and re-running with
        the same path after a crash replays the completed prefix at zero
        provider cost, producing a report byte-identical to an
        uninterrupted run.  ``resume=False`` discards any journal at the
        path and starts fresh.  Pass a preconfigured
        :class:`~repro.core.runtime.checkpoint.RunCheckpoint` via
        ``checkpoint=`` instead for crash injection.

        ``cancel`` (a :class:`~repro.core.runtime.cancel.CancelToken`)
        makes the run cooperatively cancellable: the serving layer cancels
        a job from another thread and execution unwinds with
        :class:`~repro.core.runtime.cancel.JobCancelled` at the next
        operator/chunk boundary — combined with ``checkpoint_path`` the
        cancelled run stays resumable.
        """
        if checkpoint is not None and checkpoint_path is not None:
            raise ValueError("pass checkpoint= or checkpoint_path=, not both")
        if checkpoint is None and checkpoint_path is not None:
            from repro.core.runtime.checkpoint import RunCheckpoint

            checkpoint = RunCheckpoint(checkpoint_path, resume=resume)
        try:
            plan = self.compile(pipeline)
            return plan.execute(
                inputs,
                workers=workers,
                chunk_size=chunk_size,
                checkpoint=checkpoint,
                cancel=cancel,
            )
        finally:
            if checkpoint is not None:
                checkpoint.close()

    def run_stream(
        self,
        pipeline: Pipeline,
        inputs: Any = None,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        window: int | None = None,
        ledger_path: "str | Any | None" = None,
        resume: bool = True,
        sink: "Any | None" = None,
        source_id: str = "",
        max_attempts: int = 3,
        crash: "Any | None" = None,
    ) -> RunReport:
        """Compile and execute as a memory-bounded stream.

        The out-of-core counterpart to :meth:`run`: ``inputs`` may be any
        iterable (a generator over millions of records is never
        materialized), the pipeline's chunk-capable core runs fixed-size
        shards pulled lazily from the source, and peak memory stays
        O(chunk_size x window) regardless of dataset size: at most
        ``window`` shards wait, in memory, between the source and the fold
        (``report.recovery["inflight_peak_records"]``).  Requires a
        linear pipeline with a chunk-capable, parallel-safe core (see
        :class:`~repro.core.runtime.workqueue.StreamingExecutor`).

        ``ledger_path`` makes the run crash-safe shard by shard: every
        completed shard is journalled write-ahead, a failed shard retries
        at once and is quarantined as poison after ``max_attempts``
        (reported, never fatal), and re-running with the
        same path resumes at the shard frontier with a byte-identical
        report.  Without it a temporary ledger is used and removed when
        the run ends.  ``source_id`` should carry the input source's own
        stable fingerprint (e.g. ``StreamingERCorpus.fingerprint``) so a
        resumed ledger cannot silently pair with a different source.

        ``sink`` streams outputs out instead of collecting them: a callable
        receiving each shard's output list in shard order; the report then
        carries ``{"records", "sha256"}`` instead of the output list, and
        every operator after the streamed core must be a pass-through save.

        ``crash`` is the chaos hook (:class:`repro.llm.faults.CrashPoint`)
        for the crash-resume test matrix.
        """
        import shutil
        import tempfile
        from pathlib import Path

        from repro.core.runtime.workqueue import ShardLedger, StreamingExecutor

        plan = self.compile(pipeline)
        if workers is None:
            workers = 1
        ephemeral_dir = None
        if ledger_path is None:
            ephemeral_dir = tempfile.mkdtemp(prefix="repro-stream-")
            ledger_path = Path(ephemeral_dir) / "ledger.jsonl"
        ledger = ShardLedger(ledger_path, resume=resume)
        try:
            executor = StreamingExecutor(
                plan,
                ledger=ledger,
                workers=workers,
                chunk_size=chunk_size,
                window=window,
                max_attempts=max_attempts,
                sink=sink,
                source_id=source_id,
                crash=crash,
            )
            return executor.execute(inputs)
        finally:
            ledger.close()
            if ephemeral_dir is not None:
                # Nobody holds the path, so the ledger can never be resumed.
                shutil.rmtree(ephemeral_dir, ignore_errors=True)

    # -- data and services ---------------------------------------------------------------

    def register_table(self, table: Table, name: str | None = None) -> None:
        """Add a table to the local database."""
        self.database.register(table, name)

    def connector(self, max_result_rows: int = 20) -> TabularConnector:
        """A privacy-preserving connector over the local database."""
        return TabularConnector(
            self.database, self.service, max_result_rows=max_result_rows
        )

    def usage(self, purpose: str | None = None) -> UsageSummary:
        """LLM usage so far (optionally for one purpose label)."""
        return self.service.usage(purpose)

    def reset_usage(self) -> None:
        """Clear the LLM ledger (e.g. between experiment arms)."""
        self.service.reset_usage()
