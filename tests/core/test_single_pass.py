"""A cold chunk passes through the service once.

``LLMService.prime`` pays for a chunk's uncached prompts in one batch and
hands each answer to the record that asked for it (``answers=``), so the
per-item runs of the same chunk do not call ``complete`` for what would be
an immediate cache hit: one ledger record per paid prompt, one batch
insert (``cache.put_many``) per paid batch and no ``cache.get`` after it,
and ``cached_calls`` counts reuse only.  These
tests pin the call and record counts on every path that can or cannot take
the hand-off, the cache statistics of a chunked run, and that journals
written before the change still resume.
"""

from __future__ import annotations

import shutil
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.core.modules.base import ErrorPolicy, ModuleExecutionError
from repro.core.modules.cascade import CascadeModule
from repro.core.modules.custom import CustomModule
from repro.core.modules.mapping import MapModule
from repro.core.runtime.checkpoint import RunCheckpoint
from repro.core.runtime.scheduler import Scheduler
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.datasets.imputation import generate_buy_dataset
from repro.llm.errors import BudgetExceededError, ProviderError
from repro.llm.providers import LLMProvider
from repro.llm.service import CoalesceHub, LLMService
from repro.llm.tokenizer import estimate_cost
from repro.tasks.imputation import run_llm_imputation
from tests.core.test_render_once import (
    WORKER_COUNTS,
    CountingLLM,
    ScriptedProvider,
    handoff,
    records,
)

PARENT_JOURNALS = Path(__file__).parent / "parent_journals"


def count_calls(service: LLMService) -> Counter:
    """Count ``service.complete``, the cache's ``get`` and its batch inserts
    from here on: ``cache.put_many`` calls, and under ``cache.entries`` the
    entries they carried (``cache.put`` is a batch of one)."""
    calls: Counter = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "cache.put_many":
                calls["cache.entries"] += len(args[0])
            return function(*args, **kwargs)

        return wrapper

    service.complete = counted("complete", service.complete)
    service.cache.get = counted("cache.get", service.cache.get)
    service.cache.put_many = counted("cache.put_many", service.cache.put_many)
    return calls


def ledger(service: LLMService) -> list[tuple]:
    return [
        (r.prompt, r.cached, r.outcome, r.provenance, r.cost) for r in service.records
    ]


def hits_and_misses(service: LLMService) -> tuple[int, int]:
    return service.cache.stats.exact_hits, service.cache.stats.misses


def with_repeats(n: int, repeated: int, times: int) -> list[dict]:
    """``n`` distinct records plus ``times - 1`` equal copies of one of them."""
    items = records(n)
    return items + [dict(items[repeated]) for _ in range(times - 1)]


class TestCounts:
    def test_a_cold_chunk_is_one_provider_record_per_prompt(self):
        service = LLMService(ScriptedProvider())
        calls = count_calls(service)
        outcome = MapModule("map", CountingLLM(service)).apply_chunk(records(20))
        assert outcome.outputs == [True] * 20
        assert service.served_calls == 20 and service.cached_calls == 0
        assert len(service.records) == 20
        assert calls == {"cache.put_many": 1, "cache.entries": 20}  # no complete, no get

    def test_a_repeated_prompt_is_paid_once_and_reused_by_the_rest(self):
        service = LLMService(ScriptedProvider())
        calls = count_calls(service)
        items = with_repeats(6, repeated=2, times=4)
        outcome = MapModule("map", CountingLLM(service)).apply_chunk(items)
        assert outcome.outputs == [True] * 9
        assert service.served_calls == 6 and service.cached_calls == 3
        assert calls == {
            "cache.put_many": 1, "cache.entries": 6, "complete": 3, "cache.get": 3
        }
        repeated = [r for r in service.records if '"id": 2,' in r.prompt]
        assert [r.cached for r in repeated] == [False, True, True, True]

    def test_a_warm_chunk_is_all_cache_hits_as_before(self):
        service = LLMService(ScriptedProvider())
        mapper = MapModule("map", CountingLLM(service))
        mapper.apply_chunk(records(20))
        service.reset_usage()
        calls = count_calls(service)
        assert mapper.apply_chunk(records(20)).outputs == [True] * 20
        assert service.served_calls == 0 and service.cached_calls == 20
        assert calls == {"complete": 20, "cache.get": 20}

    def test_a_rejected_first_answer_is_reprompted_through_complete(self):
        provider = ScriptedProvider(rejects=lambda prompt: True)
        service = LLMService(provider)
        calls = count_calls(service)
        llm = CountingLLM(service)
        assert MapModule("map", llm).apply_chunk(records(12)).outputs == [True] * 12
        assert llm.validation_retries == 12
        first, *reprompts = provider.batches
        assert calls["complete"] == 12 and len(first) == 12
        assert [len(batch) for batch in reprompts] == [1] * 12
        assert all("Answer strictly" in prompt for (prompt,) in reprompts)
        assert service.served_calls == 24 and service.cached_calls == 0

    def test_a_cascade_hands_over_only_the_escalated_items(self):
        service = LLMService(ScriptedProvider())
        calls = count_calls(service)
        cascade = CascadeModule(
            "cascade", lambda item: item["score"], CountingLLM(service),
            lower=0.3, upper=0.7,
        )
        items = records(30)
        escalated = sum(1 for item in items if cascade.escalates(item))
        assert 0 < escalated < 30
        assert len(MapModule("map", cascade).apply_chunk(items).outputs) == 30
        assert len(service.records) == service.served_calls == escalated
        assert calls == {"cache.put_many": 1, "cache.entries": escalated}

    def test_a_raising_round_trip_retries_every_item_in_it(self):
        class FirstRoundTripDown(ScriptedProvider):
            def complete_batch(self, requests):
                if not self.batches:
                    self.batches.append([request.prompt for request in requests])
                    raise ProviderError("connection reset")
                return super().complete_batch(requests)

        provider = FirstRoundTripDown()
        service = LLMService(provider)
        calls = count_calls(service)
        assert MapModule("map", CountingLLM(service)).apply_chunk(
            records(5)
        ).outputs == [True] * 5
        assert calls == {"cache.put_many": 1, "cache.entries": 5}  # handed over: no complete
        assert [len(batch) for batch in provider.batches] == [5, 5]
        assert [r.outcome for r in service.records] == ["retried"] * 5
        assert service.served_calls == 5 and service.cached_calls == 0
        assert hits_and_misses(service) == (0, 5)

    def test_a_prompt_that_always_fails_spends_one_retry_budget(self):
        provider = DownFor(lambda prompt: '"id": 2,' in prompt)
        service = LLMService(provider)
        llm = CountingLLM(service)
        mapper = MapModule("map", llm, error_policy=ErrorPolicy.SKIP_RECORD)
        outcome = mapper.apply_chunk(records(5))
        assert outcome.outputs == [True] * 4
        assert [entry.record["id"] for entry in outcome.quarantine] == [2]
        assert "provider failed after 4 attempts" in outcome.quarantine[0].error
        (doomed,) = [p for p in provider.attempts if '"id": 2,' in p]
        assert provider.attempts[doomed] == service.retry.max_retries + 1
        assert [r.outcome for r in service.records] == (
            ["served"] * 2 + ["gave_up"] + ["served"] * 2
        )
        assert llm.provider_failures == 1
        assert hits_and_misses(service) == (0, 5)  # as an unchunked run counts

    def test_a_disabled_cache_hands_nothing_over(self):
        provider = ScriptedProvider()
        service = LLMService(provider, cache_enabled=False)
        calls = count_calls(service)
        llm = CountingLLM(service)
        items = records(4)
        assert llm.prefetch(items) == 0
        assert handoff(llm)[1] == {}
        llm.drop_prefetched()
        assert MapModule("map", llm).apply_chunk(items).outputs == [True] * 4
        assert calls == {"complete": 4}
        assert [len(batch) for batch in provider.batches] == [1] * 4


class TestCacheStats:
    """A chunked run reports the hits and misses an unchunked run reports."""

    @pytest.mark.parametrize(
        "items, cold, warm",
        [
            (records(12), (0, 12), (12, 0)),
            (with_repeats(8, repeated=3, times=2), (1, 8), (9, 0)),
        ],
        ids=["distinct", "one-repeat"],
    )
    def test_chunked_equals_unchunked(self, items, cold, warm):
        chunked = LLMService(ScriptedProvider())
        unchunked = LLMService(ScriptedProvider())
        for service, run in (
            (chunked, lambda mapper: mapper.apply_chunk(items).outputs),
            (unchunked, lambda mapper: mapper.run(items)),
        ):
            mapper = MapModule("map", CountingLLM(service))
            assert run(mapper) == [True] * len(items)
            assert hits_and_misses(service) == cold
            assert run(mapper) == [True] * len(items)
            hits, misses = hits_and_misses(service)
            assert (hits - cold[0], misses - cold[1]) == warm

    def test_the_metrics_mirror_counts_the_same_misses(self):
        from repro.obs import Observability

        obs = Observability()
        service = LLMService(ScriptedProvider(), obs=obs)
        MapModule("map", CountingLLM(service)).apply_chunk(
            with_repeats(5, repeated=0, times=3)
        )
        assert hits_and_misses(service) == (2, 5)
        assert obs.metrics.counter("cache.misses").value == 5
        assert obs.metrics.counter("cache.exact_hits").value == 2


class FirstBatchFirst(ScriptedProvider):
    """Holds its first batch in flight long enough for other chunks to meet it."""

    def __init__(self):
        super().__init__()
        self.first_batch_arrived = threading.Event()

    def complete_batch(self, requests):
        if not self.first_batch_arrived.is_set():
            self.first_batch_arrived.set()
            time.sleep(0.02)
        return super().complete_batch(requests)


class LaterChunksWait(CountingLLM):
    """Renders records past the first chunk only once that chunk's batch is
    registered, so which chunk originates a shared prompt is not a race."""

    def __init__(self, service, first_chunk: int):
        super().__init__(service)
        self.first_chunk = first_chunk

    def build_prompt(self, value, strictness: int = 0) -> str:
        if value["id"] >= self.first_chunk:
            assert self.service.provider.first_batch_arrived.wait(timeout=30)
        return super().build_prompt(value, strictness)


class TestWorkerCounts:
    CHUNK = 6

    def items(self) -> list[dict]:
        """Five chunks; every later chunk repeats two prompts of the first."""
        first = records(self.CHUNK)
        items = list(first)
        for chunk in range(1, 5):
            items += records(4, start=100 * chunk)
            items += [dict(first[0]), dict(first[chunk])]
        return items

    def run(self, workers: int) -> LLMService:
        service = LLMService(FirstBatchFirst())
        outputs = Scheduler(workers=workers, chunk_size=self.CHUNK).run_operator(
            MapModule("map", LaterChunksWait(service, self.CHUNK)),
            self.items(),
            service,
        )
        assert outputs == [True] * 30
        return service

    def test_cross_chunk_duplicates_give_one_ledger_at_any_worker_count(self):
        sequential = self.run(1)
        assert sequential.served_calls == 22 and sequential.cached_calls == 8
        for workers in WORKER_COUNTS[1:]:
            service = self.run(workers)
            assert ledger(service) == ledger(sequential)
            assert service.clock_seconds == sequential.clock_seconds
        # (A coalesced follower's first look is a miss, so the statistics of
        # a parallel run depend on who met whom in flight; the ledger does not.)
        assert hits_and_misses(sequential) == (8, 22)


class TestHubPath:
    def test_two_tenants_each_get_their_answers_handed_over(self):
        provider = ScriptedProvider()
        hub = CoalesceHub(provider)
        items = records(10)
        ledgers = []
        for tenant in ("acme", "globex"):
            service = LLMService(provider, namespace=tenant, coalesce_hub=hub)
            calls = count_calls(service)
            outcome = MapModule("map", CountingLLM(service)).apply_chunk(items)
            assert outcome.outputs == [True] * 10
            assert calls == {"cache.put_many": 1, "cache.entries": 10}
            assert service.served_calls == 10 and service.cached_calls == 0
            assert hits_and_misses(service) == (0, 10)
            ledgers.append(ledger(service))
        assert ledgers[0] == ledgers[1]  # the follower's bill does not say who paid
        assert provider.calls == 10
        assert hub.shared_calls == 10 and hub.settled_calls == 10


class DownFor(ScriptedProvider):
    """Fails every attempt at a prompt ``down`` picks out, item by item (the
    default ``complete_batch``); counts attempts per prompt."""

    complete_batch = LLMProvider.complete_batch

    def __init__(self, down):
        super().__init__()
        self.down = down
        self.attempts: Counter = Counter()

    def complete(self, request):
        with self._lock:
            self.attempts[request.prompt] += 1
        if self.down(request.prompt):
            raise ProviderError("down")
        return self._respond(request)


def rejecting_record_2(max_attempts: int = 1, **kwargs) -> CountingLLM:
    provider = ScriptedProvider(rejects=lambda prompt: '"id": 2,' in prompt)
    return CountingLLM(LLMService(provider), max_attempts=max_attempts, **kwargs)


class TestErrorPolicies:
    """A handed-over answer that fails validation is the record's failure,
    exactly as when ``complete`` returned it."""

    def test_skip_record_quarantines_the_record(self):
        mapper = MapModule(
            "map", rejecting_record_2(), error_policy=ErrorPolicy.SKIP_RECORD
        )
        outcome = mapper.apply_chunk(records(5))
        assert outcome.outputs == [True] * 4
        assert [entry.record["id"] for entry in outcome.quarantine] == [2]
        assert "failed validation" in outcome.quarantine[0].error
        service = mapper.inner.service
        assert service.served_calls == 5 and service.cached_calls == 0

    def test_degrade_hands_the_record_to_the_fallback(self):
        mapper = MapModule(
            "map",
            rejecting_record_2(),
            error_policy=ErrorPolicy.DEGRADE,
            fallback=CustomModule("rules", lambda value: False),
        )
        outcome = mapper.apply_chunk(records(5))
        assert outcome.outputs == [True, True, False, True, True]
        assert outcome.degraded == 1 and outcome.quarantine == []

    def test_fail_raises_what_a_run_raises(self):
        with pytest.raises(ModuleExecutionError) as from_run:
            MapModule("map", rejecting_record_2()).run(records(5))
        with pytest.raises(ModuleExecutionError) as from_chunk:
            MapModule("map", rejecting_record_2()).apply_chunk(records(5))
        assert str(from_chunk.value) == str(from_run.value)


class TestBudgets:
    """The budget is checked once per paid round: a refused prime hands
    each record the error, and the first record that asks raises it."""

    def run(self, **budget) -> tuple[LLMService, BaseException]:
        service = LLMService(ScriptedProvider(), **budget)
        mapper = MapModule("map", CountingLLM(service))
        mapper.apply_chunk(records(5))
        mapper.apply_chunk(records(5, start=5))
        with pytest.raises(ModuleExecutionError) as raised:
            mapper.apply_chunk(records(5, start=10))
        return service, raised.value.cause

    def test_max_calls_trips_at_the_same_call(self):
        service, cause = self.run(max_calls=10)
        assert isinstance(cause, BudgetExceededError)
        assert service.provider.calls == 10
        assert service.served_calls == 10 and service.cached_calls == 0

    def test_max_cost_trips_at_the_same_call(self):
        service, cause = self.run(max_cost=9.5 * estimate_cost(5, 1))
        assert isinstance(cause, BudgetExceededError)
        assert service.provider.calls == 10
        assert service.total_cost == pytest.approx(10 * estimate_cost(5, 1))


class TestClearCacheMidChunk:
    def test_an_answer_this_chunk_paid_for_is_still_used(self):
        """``clear_cache`` drops what the cache would *serve*; the answer in
        the hand-off was never served from the cache, it was bought for
        this record a moment ago."""
        provider = ScriptedProvider()
        service = LLMService(provider)
        llm = CountingLLM(service)
        items = records(3)
        llm.prefetch(items)
        try:
            service.clear_cache()
            assert [llm.run(item) for item in items] == [True] * 3
        finally:
            llm.drop_prefetched()
        assert provider.calls == 3 and len(service.records) == 3
        assert len(service.cache) == 0  # and the clear stays a clear
        llm.run(items[0])
        assert provider.calls == 4  # nothing left to reuse: paid again


class TestParentJournals:
    """Journals written by the commit before the hand-off still resume.

    ``parent_journals/`` holds a run checkpoint (imputation, killed after
    the first of two chunks was journalled) and a shard ledger (streaming
    ER, killed after the first of three shards) written at 7b0a419, when
    every primed prompt was also ledgered as a cache hit.  A replayed
    chunk keeps those records — a journal is replayed, not re-derived —
    and the live remainder is one pass; answers and the bill are a fresh
    run's.
    """

    def test_a_run_checkpoint_resumes(self, tmp_path):
        data = generate_buy_dataset(seed=11, n_train=8, n_test=12).test
        fresh = run_llm_imputation(LinguaManga(), data, workers=1)
        wal = tmp_path / "run.wal"
        shutil.copy(PARENT_JOURNALS / "run.wal", wal)
        checkpoint = RunCheckpoint(wal)
        system = LinguaManga()
        resumed = run_llm_imputation(system, data, workers=1, checkpoint=checkpoint)
        assert checkpoint.stats.resumed and checkpoint.stats.replayed_chunks == 1
        assert resumed.predictions == fresh.predictions
        assert resumed.accuracy == fresh.accuracy
        assert resumed.cost == fresh.cost
        assert resumed.llm_calls == fresh.llm_calls == 12
        assert (fresh.cached_calls, resumed.cached_calls) == (0, 8)
        # chunk 0 as the parent journalled it, chunk 1 live
        assert [r.cached for r in system.service.records] == (
            [False] * 8 + [True] * 8 + [False] * 4
        )

    def test_a_shard_ledger_resumes(self, tmp_path):
        corpus = StreamingERCorpus(24, seed=7)

        def run(**kwargs):
            pipeline = get_template("entity_resolution").instantiate(
                examples=corpus.examples()
            )
            return LinguaManga().run_stream(
                pipeline,
                {"pairs": corpus.inputs()},
                workers=1,
                chunk_size=8,
                source_id=corpus.fingerprint,
                **kwargs,
            )

        fresh = run()
        wal = tmp_path / "ledger.wal"
        shutil.copy(PARENT_JOURNALS / "ledger.wal", wal)
        resumed = run(ledger_path=wal)
        assert resumed.recovery["resumed"] and resumed.recovery["replayed_shards"] == 1
        assert resumed.outputs == fresh.outputs
        assert resumed.cost.cost == fresh.cost.cost
        assert resumed.cost.served_calls == fresh.cost.served_calls == 24
        assert resumed.cost.latency_seconds == fresh.cost.latency_seconds
        assert (fresh.cost.cached_calls, resumed.cost.cached_calls) == (0, 8)
