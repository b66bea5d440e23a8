"""The batched execution engine every run goes through.

The plan executor walks one operator at a time; inside an operator the LLM
provider is the dominant latency source and independent record chunks can
be in flight at once.  :class:`Scheduler` partitions an operator's list
input into fixed-size record chunks, runs them on a bounded worker pool
(inline at ``workers=1``) and merges everything back **in chunk order**,
which is what makes runs reproducible at any worker count:

- every chunk executes inside an :meth:`LLMService.scoped` call scope — a
  private ledger buffer plus a shadow virtual clock frozen at the
  operator-entry time — so ledger records never interleave across threads;
- scopes, quarantined records and degraded counts are merged in chunk
  index order, not thread completion order;
- chunk boundaries depend only on ``chunk_size`` (never on ``workers``),
  so the same run at 1, 2 or 8 workers produces the same chunks;
- after the merge, the new ledger slice is **canonicalised**: within each
  group of records for the same prompt, served records are ordered before
  cache hits, erasing the only observable trace of which thread happened
  to win a request-coalescing race.

The result is the determinism contract the test suite pins down: with a
deterministic provider stack (and content-keyed chaos, if any), the same
seed and fault spec yield byte-identical canonical run reports at any
worker count.

Modules opt in via ``chunk_capable`` + ``apply_chunk`` and can veto
parallel execution for themselves or any wrapped child with
``parallel_safe = False`` (online learners, self-repairing codegen).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.core.modules.base import ChunkOutcome, Module
from repro.llm.service import CallScope, LLMService
from repro.resilience.clock import VirtualClock

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "partition",
    "iter_chunks",
    "resolve_chunk_size",
    "tree_parallel_safe",
    "canonicalize_ledger",
    "Scheduler",
]

#: Default records per chunk.  Chunk boundaries are part of the observable
#: execution (they decide batch-prime groups), so this must never be
#: derived from the worker count.
DEFAULT_CHUNK_SIZE = 8


def partition(values: Sequence[Any], chunk_size: int) -> list[list[Any]]:
    """Split ``values`` into consecutive chunks of ``chunk_size``.

    The last chunk may be short.  Deterministic and independent of the
    worker count by construction.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [
        list(values[start : start + chunk_size])
        for start in range(0, len(values), chunk_size)
    ]


def iter_chunks(values, chunk_size: int):
    """Lazily chunk any iterable: the streaming analogue of :func:`partition`.

    Pulls at most ``chunk_size`` records ahead of the consumer, so an
    out-of-core source (a generator over millions of records) is never
    materialized.  Chunk boundaries depend only on ``chunk_size``, exactly
    as :func:`partition`'s do.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    chunk: list[Any] = []
    for value in values:
        chunk.append(value)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def resolve_chunk_size(module: Module, chunk_size: int | None = None) -> int:
    """The chunk size one operator actually runs with.

    Shared by the batch scheduler and the streaming executor so both
    engines cut identical shard boundaries: an explicit ``chunk_size``
    wins, then the module's ``preferred_chunk_size``, then
    :data:`DEFAULT_CHUNK_SIZE`.
    """
    if chunk_size is not None:
        return chunk_size
    if module.preferred_chunk_size is not None:
        return module.preferred_chunk_size
    return DEFAULT_CHUNK_SIZE


def tree_parallel_safe(module: Module) -> bool:
    """Whether ``module`` and every wrapped child tolerate parallelism."""
    return module.parallel_safe and all(
        tree_parallel_safe(child) for _, child in module._children()
    )


def _canonical_rank(record) -> int:
    """Within one same-prompt group, the order sequential execution produces.

    The record that *originated* the answer precedes the exact-cache hits
    it feeds: a provider call first, then a distilled answer, then plain
    exact hits.
    """
    if not record.cached:
        return 0
    if getattr(record, "provenance", "") == "distilled":
        return 1
    return 2


def canonicalize_ledger(records: list, mark: int) -> None:
    """Normalise coalescing races in ``records[mark:]`` in place.

    Sequential execution always serves the *first* occurrence of a prompt
    and answers later duplicates from the cache.  Under coalescing, the
    thread that wins leadership may belong to a later chunk, leaving the
    originating record (a provider call) at a later position.  Within each same-prompt group this reorders records
    so originating entries precede exact-cache hits (stable otherwise),
    restoring the sequential shape byte for byte.
    """
    tail = records[mark:]
    groups: dict[str, list[int]] = {}
    for index, record in enumerate(tail):
        groups.setdefault(record.prompt, []).append(index)
    changed = False
    for indices in groups.values():
        if len(indices) < 2:
            continue
        group = [tail[i] for i in indices]
        reordered = sorted(group, key=_canonical_rank)  # stable
        if reordered != group:
            for i, record in zip(indices, reordered):
                tail[i] = record
            changed = True
    if changed:
        records[mark:] = tail


class Scheduler:
    """Bounded worker pool with deterministic chunk-order merging.

    Parameters
    ----------
    workers:
        Maximum concurrent chunks.  ``1`` runs chunks inline (no threads)
        but through the *same* scope/merge machinery, so results are
        byte-identical to any higher worker count.
    chunk_size:
        Records per chunk; ``None`` defers to the module's
        ``preferred_chunk_size`` and then :data:`DEFAULT_CHUNK_SIZE`.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int | None = None,
        cancel: "Any | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.chunk_size = chunk_size
        #: optional :class:`~repro.core.runtime.cancel.CancelToken`; checked
        #: before every chunk so a cancelled job unwinds at a journal-valid
        #: boundary instead of mid-provider-call.
        self.cancel = cancel

    def _chunk_size_for(self, module: Module) -> int:
        return resolve_chunk_size(module, self.chunk_size)

    def should_chunk(self, module: Module, value: Any) -> bool:
        """Whether ``value`` can be split for ``module``."""
        return (
            isinstance(value, list)
            and len(value) > 1
            and module.chunk_capable
            and tree_parallel_safe(module)
        )

    def run_operator(
        self, module: Module, value: Any, service: LLMService, op_ctx=None
    ) -> Any:
        """Execute one operator, chunked and parallel where possible.

        Falls back to a plain ``module.run(value)`` for non-list inputs
        and modules that are not chunk-capable (or not parallel-safe).

        ``op_ctx`` is a checkpoint :class:`~repro.core.runtime.checkpoint.
        OperatorContext`: committed chunks from a prior crashed run are
        replayed verbatim (their ledger records re-warm the exact cache
        before any live chunk executes, so live chunks hit exactly what
        they originally hit), remaining chunks run live and are journalled
        write-ahead the moment they finish, and the named crash boundaries
        ``chunk:entered`` / ``chunk:executed`` / ``chunk:journaled`` are
        announced around each live chunk.
        """
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()
        if not self.should_chunk(module, value):
            return module.run(value)

        chunks = partition(value, self._chunk_size_for(module))
        completed = {}
        if op_ctx is not None:
            completed = op_ctx.replayable_chunks([len(chunk) for chunk in chunks])
            if completed:
                # Cache warming must precede any live execution: a live
                # chunk that originally hit the cache would otherwise
                # re-pay the provider and break byte-identical resume.
                service.restore_from_records(
                    [
                        record
                        for index in sorted(completed)
                        for record in completed[index].records
                    ]
                )
        base = service.clock.now
        mark = len(service.records)
        started = time.perf_counter()
        with module._lock:
            module.stats.invocations += 1
        obs = getattr(service, "obs", None)
        if obs is not None:
            obs.metrics.counter("scheduler.chunked_operators").inc()
            obs.metrics.counter("scheduler.chunks").inc(len(chunks))
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            sizes = obs.metrics.histogram(
                "scheduler.chunk_records", DEFAULT_SIZE_BUCKETS
            )
            for chunk in chunks:
                sizes.observe(len(chunk))

        def task(index: int, chunk: list[Any]) -> tuple[CallScope, ChunkOutcome]:
            if self.cancel is not None:
                self.cancel.raise_if_cancelled()
            if op_ctx is not None:
                op_ctx.crash("chunk:entered")
            with service.scoped(base) as scope:
                outcome = module.apply_chunk(chunk)
            if op_ctx is not None:
                op_ctx.crash("chunk:executed")
                op_ctx.record_chunk(index, chunk, scope, outcome)
                op_ctx.crash("chunk:journaled")
            return scope, outcome

        pending = [index for index in range(len(chunks)) if index not in completed]
        live: dict[int, tuple[CallScope, ChunkOutcome]] = {}
        try:
            if self.workers == 1 or len(pending) <= 1:
                for index in pending:
                    live[index] = task(index, chunks[index])
            else:
                pool_size = min(self.workers, len(pending))
                with ThreadPoolExecutor(
                    max_workers=pool_size, thread_name_prefix="repro-sched"
                ) as pool:
                    futures = {
                        index: pool.submit(task, index, chunks[index])
                        for index in pending
                    }
                    for index, future in futures.items():
                        live[index] = future.result()
        except Exception:
            with module._lock:
                module.stats.failures += 1
                module.stats.total_seconds += time.perf_counter() - started
            raise

        outputs: list[Any] = []
        tracer = obs.tracer if obs is not None else None
        for index in range(len(chunks)):
            replayed = index in completed
            if replayed:
                replay = completed[index]
                scope = CallScope(
                    base=0.0,
                    clock=VirtualClock(replay.elapsed),
                    records=list(replay.records),
                )
                outcome = ChunkOutcome(
                    outputs=list(replay.outputs),
                    quarantine=list(replay.quarantine),
                    degraded=replay.degraded,
                )
            else:
                scope, outcome = live[index]
            service.merge_scope(scope)
            with module._lock:
                module.quarantine.extend(outcome.quarantine)
                module.stats.quarantined += len(outcome.quarantine)
                module.stats.degraded += outcome.degraded
            outputs.extend(outcome.outputs)
            if tracer is not None and tracer.enabled:
                # Chunk spans carry structure, not latency: which chunk pays
                # a coalesced call's wait is racy, so they pin the
                # operator-entry timestamp and deterministic counts only.
                tracer.add_span(
                    f"chunk[{index}]",
                    kind="chunk",
                    start=base,
                    records=len(chunks[index]),
                    outputs=len(outcome.outputs),
                    quarantined=len(outcome.quarantine),
                    degraded=outcome.degraded,
                )
            if op_ctx is not None:
                op_ctx.note_chunk(
                    index,
                    records=len(chunks[index]),
                    outputs=len(outcome.outputs),
                    quarantined=len(outcome.quarantine),
                    degraded=outcome.degraded,
                    replayed=replayed,
                )
        with service._lock:
            canonicalize_ledger(service.records, mark)
        with module._lock:
            module.stats.total_seconds += time.perf_counter() - started
        return outputs
