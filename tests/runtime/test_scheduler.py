"""Unit tests for the concurrent batched execution engine."""

from __future__ import annotations

import threading

import pytest

from repro.core.modules.base import ChunkOutcome, Module
from repro.core.modules.mapping import MapModule
from repro.core.runtime.scheduler import (
    DEFAULT_CHUNK_SIZE,
    Scheduler,
    canonicalize_ledger,
    partition,
    tree_parallel_safe,
)
from repro.llm.providers import SimulatedProvider
from repro.llm.service import CallRecord, LLMService


class Doubler(Module):
    """Chunk-capable toy module; records which threads ran chunks."""

    chunk_capable = True

    def __init__(self, name: str = "doubler"):
        super().__init__(name)
        self.threads: set[str] = set()

    def _run(self, value):
        return [v * 2 for v in value]

    def apply_chunk(self, chunk):
        self.threads.add(threading.current_thread().name)
        with self.collecting_quarantine() as bucket:
            outputs = []
            for v in chunk:
                if v < 0:
                    self.quarantine_record(v, "negative input")
                else:
                    outputs.append(v * 2)
        return ChunkOutcome(outputs=outputs, quarantine=bucket)


class Opaque(Module):
    """Not chunk-capable: the scheduler must fall back to plain run()."""

    def _run(self, value):
        return value


class TestPartition:
    def test_even_split(self):
        assert partition([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert partition([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_single_chunk_when_larger_than_input(self):
        assert partition([1, 2], 10) == [[1, 2]]

    def test_empty(self):
        assert partition([], 4) == []

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValueError):
            partition([1], 0)

    def test_boundaries_do_not_depend_on_workers(self):
        # The invariant the determinism contract rests on: chunking is a
        # pure function of (values, chunk_size).
        values = list(range(23))
        assert partition(values, 4) == partition(list(values), 4)


class TestTreeParallelSafe:
    def test_plain_module_is_safe(self):
        assert tree_parallel_safe(Doubler())

    def test_unsafe_module(self):
        module = Doubler()
        module.parallel_safe = False
        assert not tree_parallel_safe(module)

    def test_unsafe_child_poisons_wrapper(self):
        inner = Doubler("inner")
        inner.parallel_safe = False
        wrapper = MapModule("map", inner)
        assert not tree_parallel_safe(wrapper)

    def test_safe_tree(self):
        assert tree_parallel_safe(MapModule("map", Doubler("inner")))


def _record(prompt: str, cached: bool) -> CallRecord:
    return CallRecord(
        prompt=prompt,
        response_text="x",
        prompt_tokens=1,
        completion_tokens=1,
        cost=0.0 if cached else 1.0,
        cached=cached,
        skill="",
        purpose="",
        latency_seconds=0.0,
    )


class TestCanonicalizeLedger:
    def test_served_record_moves_before_cache_hits(self):
        records = [
            _record("p", cached=True),
            _record("q", cached=False),
            _record("p", cached=False),
        ]
        canonicalize_ledger(records, 0)
        assert [(r.prompt, r.cached) for r in records] == [
            ("p", False),
            ("q", False),
            ("p", True),
        ]

    def test_respects_mark(self):
        records = [
            _record("p", cached=True),
            _record("p", cached=False),
        ]
        canonicalize_ledger(records, 1)
        # Only the tail (one record) is in scope: nothing to reorder.
        assert [r.cached for r in records] == [True, False]

    def test_already_canonical_is_untouched(self):
        records = [_record("p", cached=False), _record("p", cached=True)]
        before = list(records)
        canonicalize_ledger(records, 0)
        assert records == before


class TestScheduler:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            Scheduler(workers=0)

    def test_should_chunk_requires_list(self):
        scheduler = Scheduler(workers=2)
        assert not scheduler.should_chunk(Doubler(), "scalar")
        assert not scheduler.should_chunk(Doubler(), [1])
        assert scheduler.should_chunk(Doubler(), [1, 2])

    def test_should_chunk_requires_capability(self):
        scheduler = Scheduler(workers=2)
        assert not scheduler.should_chunk(Opaque("opaque"), [1, 2])

    def test_should_chunk_respects_parallel_safety(self):
        scheduler = Scheduler(workers=2)
        module = Doubler()
        module.parallel_safe = False
        assert not scheduler.should_chunk(module, [1, 2])

    def test_chunk_size_preference_order(self):
        module = Doubler()
        assert Scheduler(chunk_size=3)._chunk_size_for(module) == 3
        module.preferred_chunk_size = 5
        assert Scheduler()._chunk_size_for(module) == 5
        assert Scheduler(chunk_size=3)._chunk_size_for(module) == 3  # caller wins
        module.preferred_chunk_size = None
        assert Scheduler()._chunk_size_for(module) == DEFAULT_CHUNK_SIZE

    def test_run_operator_merges_in_chunk_order(self):
        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=4, chunk_size=2)
        out = scheduler.run_operator(Doubler(), list(range(10)), service)
        assert out == [v * 2 for v in range(10)]

    def test_run_operator_uses_multiple_threads(self):
        # Two chunks rendezvous at a barrier: neither can finish until both
        # are running, which *proves* two pool threads without sleeping.
        barrier = threading.Barrier(2, timeout=10.0)

        class RendezvousDoubler(Doubler):
            def apply_chunk(self, chunk):
                barrier.wait()
                return super().apply_chunk(chunk)

        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=2, chunk_size=1)
        module = RendezvousDoubler()
        scheduler.run_operator(module, [1, 2], service)
        assert len(module.threads) == 2

    def test_workers_one_stays_inline(self):
        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=1, chunk_size=2)
        module = Doubler()
        scheduler.run_operator(module, list(range(6)), service)
        assert module.threads == {threading.main_thread().name}

    def test_quarantine_merged_in_chunk_order(self):
        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=4, chunk_size=1)
        module = Doubler()
        out = scheduler.run_operator(module, [-3, 1, -2, 2], service)
        assert out == [2, 4]
        assert [q.record for q in module.quarantine] == [-3, -2]
        assert module.stats.quarantined == 2

    def test_one_invocation_per_operator(self):
        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=4, chunk_size=1)
        module = Doubler()
        scheduler.run_operator(module, list(range(8)), service)
        assert module.stats.invocations == 1

    def test_fallback_to_plain_run(self):
        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=4)
        module = Opaque("opaque")
        assert scheduler.run_operator(module, [1, 2], service) == [1, 2]
        assert module.stats.invocations == 1

    def test_failure_counts_and_reraises(self):
        class Exploder(Doubler):
            def apply_chunk(self, chunk):
                raise RuntimeError("boom")

        service = LLMService(SimulatedProvider())
        scheduler = Scheduler(workers=2, chunk_size=1)
        module = Exploder()
        with pytest.raises(RuntimeError):
            scheduler.run_operator(module, [1, 2], service)
        assert module.stats.failures == 1
