"""The batched execution engine every run goes through.

The plan executor walks one operator at a time; inside an operator the LLM
provider is the dominant latency source and independent record chunks can
be in flight at once.  :class:`Scheduler` runs every operator as an
ordered run of chunks: a list input the module can split becomes
fixed-size record chunks on a bounded worker pool (:func:`ordered_map`,
inline at ``workers=1``); any other operator is one chunk.  Chunks merge
back **in chunk order**, which is what makes runs reproducible at any
worker count:

- every chunk executes inside an :meth:`LLMService.scoped` call scope — a
  private ledger buffer plus a shadow virtual clock frozen at the
  operator-entry time — so ledger records never interleave across threads;
- scopes, quarantined records and degraded counts are merged in chunk
  index order, each as its chunk's turn comes, not in thread completion
  order;
- chunk boundaries depend only on ``chunk_size`` (never on ``workers``),
  so the same run at 1, 2 or 8 workers produces the same chunks;
- after the merge, the new ledger slice is **canonicalised**: within each
  group of records for the same prompt, served records are ordered before
  cache hits, erasing the only observable trace of which thread happened
  to win a request-coalescing race.

The result is the determinism contract the test suite pins down: with a
deterministic provider stack (chaos injection included), the same
seed and fault spec yield byte-identical canonical run reports at any
worker count.

Modules opt in to splitting via ``chunk_capable`` + ``apply_chunk`` and
can veto it for themselves or any wrapped child with
``parallel_safe = False`` (online learners, lazily generated code).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.compiler.plan import _tree_degraded
from repro.core.modules.base import ChunkOutcome, Module
from repro.llm.service import CallScope, LLMService

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "partition",
    "iter_chunks",
    "ordered_map",
    "resolve_chunk_size",
    "tree_parallel_safe",
    "chunkable",
    "canonicalize_ledger",
    "require_positive",
    "Scheduler",
]

#: Default records per chunk.  Chunk boundaries are part of the observable
#: execution (they decide batch-prime groups), so this must never be
#: derived from the worker count.
DEFAULT_CHUNK_SIZE = 8


def require_positive(**knobs: int | None) -> None:
    """Refuse the first execution knob below 1; ``None`` means its default.

    Both engines and :class:`~repro.core.runtime.system.LinguaManga` check
    before a run journal opens: a bad value must leave no journal behind.
    """
    for name, value in knobs.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1")


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


def ordered_map(
    fn: Callable[[Any], Any], items: Iterable[Any], *, workers: int, window: int
) -> Iterator[Any]:
    """Yield ``fn(item)`` for every item, in item order.

    The one worker pool behind both engines: the batch scheduler's chunks
    and the streaming executor's shards.  With ``workers == 1`` (or a
    window of at most one) every item runs inline on the calling thread.
    Otherwise ``items`` is pulled lazily, on the calling thread, and only
    while fewer than ``window`` items are outstanding (pulled, not yet
    yielded): the in-flight window, which bounds what a stream holds.
    A raise — from ``fn`` or from ``items`` — stops the map when its item's
    turn comes: nothing more is pulled, items already submitted run to
    completion, and the error propagates.
    """
    if workers == 1 or window <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(
        max_workers=min(workers, window), thread_name_prefix="repro-pool"
    ) as pool:
        outstanding: deque = deque()
        for item in items:
            outstanding.append(pool.submit(fn, item))
            if len(outstanding) >= window:
                yield outstanding.popleft().result()
        while outstanding:
            yield outstanding.popleft().result()


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


def chunkable(module: Module) -> bool:
    """Whether either engine may split ``module``'s input into chunks."""
    return module.chunk_capable and tree_parallel_safe(module)


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

    def __init__(self, workers: int = 1, chunk_size: int | None = None):
        require_positive(workers=workers, chunk_size=chunk_size)
        self.workers = workers
        self.chunk_size = chunk_size

    def _chunk_size_for(self, module: Module) -> int:
        return resolve_chunk_size(module, self.chunk_size)

    def should_chunk(self, module: Module, value: Any) -> bool:
        """Whether ``value`` can be split for ``module``."""
        return isinstance(value, list) and len(value) > 1 and chunkable(module)

    def run_operator(
        self, module: Module, value: Any, service: LLMService, op_ctx=None
    ) -> Any:
        """Execute one operator as an ordered run of chunks.

        A list input the module can split (:meth:`should_chunk`) becomes
        fixed-size record chunks, run through :meth:`Module.apply_chunk` on
        the pool.  Any other operator is one chunk, ``[[value]]``, that runs
        ``module.run(value)`` (:func:`_run_whole`); it emits no ``chunk[i]``
        span and no ``scheduler.*`` metric.  Each chunk runs in its own call
        scope and is merged as its turn comes, in chunk order, so at one
        worker chunk *k + 1* runs against a ledger that holds
        chunks *0..k*.  A raise rolls back the scopes not yet merged.

        ``op_ctx`` is a checkpoint :class:`~repro.core.runtime.checkpoint.
        OperatorContext`: journalled chunks from a prior run — of an
        operator in flight or one already committed — are replayed verbatim
        (their ledger records re-warm the exact cache before any live chunk
        executes, so live chunks hit exactly what they originally hit),
        remaining chunks run live and are journalled write-ahead the moment
        they finish (the last one with the operator's commit marker, see
        :class:`~repro.core.runtime.checkpoint.OperatorContext`), and the
        named crash boundaries ``chunk:entered`` /
        ``chunk:executed`` / ``chunk:journaled`` are announced around each
        live chunk.
        """
        split = self.should_chunk(module, value)
        chunks = partition(value, self._chunk_size_for(module)) if split else [[value]]
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
                        for record in completed[index][0].records
                    ]
                )
        base = service.clock.now
        mark = len(service.records)
        started = time.perf_counter()
        with module._lock:
            module.stats.invocations += 1
        obs = getattr(service, "obs", None) if split else None
        if obs is not None:
            obs.metrics.counter("scheduler.chunked_operators").inc()
            obs.metrics.counter("scheduler.chunks").inc(len(chunks))
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            sizes = obs.metrics.histogram(
                "scheduler.chunk_records", DEFAULT_SIZE_BUCKETS
            )
            for chunk in chunks:
                sizes.observe(len(chunk))

        scopes: dict[int, CallScope] = {}

        def task(index: int) -> tuple[CallScope, ChunkOutcome]:
            if op_ctx is not None:
                op_ctx.checkpoint.reached("chunk:entered")
            with service.scoped(base) as scope:
                # Registered on entry: a chunk that raises after paying must
                # still have its cache inserts rolled back.
                scopes[index] = scope
                if split:
                    outcome = module.apply_chunk(chunks[index])
                else:
                    outcome = _run_whole(module, value)
            if op_ctx is not None:
                op_ctx.checkpoint.reached("chunk:executed")
                op_ctx.record_chunk(index, chunks[index], scope, outcome)
                op_ctx.checkpoint.reached("chunk:journaled")
            return scope, outcome

        pending = [index for index in range(len(chunks)) if index not in completed]
        live = ordered_map(task, pending, workers=self.workers, window=len(pending))
        outputs: list[Any] = []
        tracer = obs.tracer if obs is not None else None
        index = 0
        try:
            for index in range(len(chunks)):
                scope, outcome = completed[index] if index in completed else next(live)
                service.merge_scope(scope)
                with module._lock:
                    module.quarantine.extend(outcome.quarantine)
                    module.stats.quarantined += len(outcome.quarantine)
                    module.stats.degraded += outcome.degraded
                outputs.extend(outcome.outputs)
                if tracer is not None:
                    # Chunk spans carry structure, not latency: which chunk
                    # pays a coalesced call's wait is racy, so they pin the
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
        except Exception:
            # Let every chunk in flight finish, then undo the scopes not
            # merged: no answer they cached may outlive them, as the ledger
            # would not say who paid for it.
            live.close()
            for chunk_index, scope in scopes.items():
                if chunk_index >= index:
                    service.rollback_scope(scope)
            with module._lock:
                module.stats.failures += 1
                module.stats.total_seconds += time.perf_counter() - started
            raise
        with service._lock:
            canonicalize_ledger(service.records, mark)
        with module._lock:
            module.stats.total_seconds += time.perf_counter() - started
        return outputs if split else outputs[0]


def _run_whole(module: Module, value: Any) -> ChunkOutcome:
    """Run an operator that cannot be split as the one chunk it is.

    ``module.run`` books the top module's counters itself; they are taken
    back, so the merge books them once from the outcome, as for any chunk.
    The outcome's quarantine is the tree's, drained, and its degraded count
    is the tree's delta.
    """
    with module._lock:
        counters = vars(module.stats).copy()
    degraded_before = _tree_degraded(module)
    try:
        output = module.run(value)
        quarantine = module.drain_quarantine()
        degraded = _tree_degraded(module) - degraded_before
    finally:
        with module._lock:
            vars(module.stats).update(counters)
    return ChunkOutcome(outputs=[output], quarantine=quarantine, degraded=degraded)
