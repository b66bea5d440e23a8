"""Tests for the LLM service layer: cache, budget, retries, ledger."""

from __future__ import annotations

import pytest

from repro.llm.cache import CacheKey
from repro.llm.errors import BudgetExceededError, ProviderError, RateLimitError
from repro.llm.providers import FlakyProvider, LLMRequest, SimulatedProvider
from repro.llm.service import DEFAULT_RETRY_JITTER, LLMService
from repro.llm.tokenizer import count_tokens, estimate_cost
from repro.resilience import RetryPolicy

PROMPT = "Which language is this? Text: El informe fue presentado ayer."


def _retries(max_retries: int) -> RetryPolicy:
    """The service's default policy with a different retry budget."""
    return RetryPolicy(max_retries=max_retries, jitter=DEFAULT_RETRY_JITTER)


class TestTokenizer:
    def test_empty_is_zero(self):
        assert count_tokens("") == 0

    def test_monotone_in_length(self):
        assert count_tokens("word " * 50) > count_tokens("word " * 5)

    def test_cost_positive(self):
        assert estimate_cost(100, 50) > 0

    def test_cost_scales_with_tokens(self):
        assert estimate_cost(2000, 100) > estimate_cost(100, 100)


class TestCache:
    def test_identical_prompt_served_once(self, service: LLMService):
        first = service.complete(PROMPT)
        second = service.complete(PROMPT)
        assert first == second
        assert service.served_calls == 1
        assert service.cached_calls == 1

    def test_cached_call_is_free(self, service: LLMService):
        service.complete(PROMPT)
        cost_after_first = service.total_cost
        service.complete(PROMPT)
        assert service.total_cost == cost_after_first

    def test_cache_can_be_disabled(self):
        service = LLMService(SimulatedProvider(), cache_enabled=False)
        service.complete(PROMPT)
        service.complete(PROMPT)
        assert service.served_calls == 2

    def test_clear_cache_forces_refetch(self, service: LLMService):
        service.complete(PROMPT)
        service.clear_cache()
        service.complete(PROMPT)
        assert service.served_calls == 2


class TestBudget:
    def test_call_budget_enforced(self):
        service = LLMService(SimulatedProvider(), max_calls=2)
        service.complete("prompt one: summarize this")
        service.complete("prompt two: summarize that")
        with pytest.raises(BudgetExceededError):
            service.complete("prompt three: summarize more")

    def test_cached_hits_do_not_consume_budget(self):
        service = LLMService(SimulatedProvider(), max_calls=1)
        service.complete(PROMPT)
        service.complete(PROMPT)  # cache hit, fine
        with pytest.raises(BudgetExceededError):
            service.complete("a different prompt entirely")

    def test_cost_budget_enforced(self):
        service = LLMService(SimulatedProvider(), max_cost=1e-9)
        service.complete(PROMPT)  # first call allowed (budget checked before)
        with pytest.raises(BudgetExceededError):
            service.complete("another prompt")


class TestRetries:
    def test_transient_failures_are_retried(self):
        flaky = FlakyProvider(SimulatedProvider(), failure_rate=0.45, seed_tag="t1")
        service = LLMService(flaky, retry=_retries(5))
        for i in range(10):
            assert service.complete(f"summarize document number {i}")
        assert all(r.retries <= 5 for r in service.records)
        assert any(r.retries > 0 for r in service.records)

    def test_rate_limit_advances_clock(self):
        flaky = FlakyProvider(
            SimulatedProvider(), failure_rate=0.0, rate_limit_rate=0.5, seed_tag="t2"
        )
        service = LLMService(flaky, retry=_retries(6))
        for i in range(6):
            service.complete(f"summarize item {i}")
        assert service.clock_seconds > 0

    def test_permanent_outage_raises_after_retries(self):
        flaky = FlakyProvider(SimulatedProvider(), failure_rate=1.0)
        service = LLMService(flaky, retry=_retries(2))
        with pytest.raises(ProviderError):
            service.complete("anything")
        assert service.served_calls == 0  # nothing ever succeeded


class TestLedger:
    def test_usage_totals_are_conserved(self, service: LLMService):
        prompts = [f"summarize item number {i}" for i in range(5)]
        for prompt in prompts:
            service.complete(prompt, purpose="demo")
        usage = service.usage()
        assert usage.total_calls == 5
        assert usage.cost == pytest.approx(sum(r.cost for r in service.records))
        assert usage.prompt_tokens == sum(r.prompt_tokens for r in service.records)

    def test_usage_filter_by_purpose(self, service: LLMService):
        service.complete("summarize a", purpose="x")
        service.complete("summarize b", purpose="y")
        assert service.usage("x").total_calls == 1
        assert service.usage("zzz").total_calls == 0

    def test_reset_usage_keeps_cache(self, service: LLMService):
        service.complete(PROMPT)
        service.reset_usage()
        assert service.usage().total_calls == 0
        service.complete(PROMPT)
        assert service.cached_calls == 1  # cache survived

    def test_records_tag_skill(self, service: LLMService):
        service.complete(PROMPT)
        assert service.records[0].skill == "langdetect"

    def test_usage_text_rendering(self, service: LLMService):
        service.complete(PROMPT)
        text = service.usage().to_text()
        assert "calls=1" in text and "cost=$" in text


class _BatchRecorder(SimulatedProvider):
    def __init__(self):
        super().__init__()
        self.batches: list[list[str]] = []

    def complete_batch(self, requests):
        self.batches.append([request.prompt for request in requests])
        return super().complete_batch(requests)


class TestPrimeBatch:
    def test_building_the_batch_is_linear_in_its_size(self, monkeypatch):
        """``_inflight`` is the duplicate test: no key is compared with the
        keys that joined the batch before it (2 000 prompts used to make
        ~2 million ``CacheKey.__eq__`` calls)."""
        compared = []
        real_eq = CacheKey.__eq__

        def counting_eq(self, other):
            compared.append(1)
            return real_eq(self, other)

        monkeypatch.setattr(CacheKey, "__eq__", counting_eq)
        provider = _BatchRecorder()
        service = LLMService(provider)
        prompts = [f"{PROMPT} (variant {i})" for i in range(2000)]
        assert service.prime(prompts) == 2000
        assert [len(batch) for batch in provider.batches] == [2000]
        assert len(compared) <= 4 * len(prompts)

    def test_a_repeated_prompt_is_sent_and_recorded_once(self):
        provider = _BatchRecorder()
        service = LLMService(provider)
        other = PROMPT + " Also this."
        assert service.prime([PROMPT, other, PROMPT, PROMPT]) == 2
        assert provider.batches == [[PROMPT, other]]
        assert service.served_calls == 2 and len(service.records) == 2
        assert service._inflight == {}
        assert service.prime([PROMPT, PROMPT]) == 0  # cached now: nothing to send
        assert len(provider.batches) == 1

    def test_each_call_builds_one_key_per_prompt(self, monkeypatch):
        built = []
        real_key = LLMService._cache_key

        def counting_key(self, prompt, max_tokens, version):
            built.append(prompt)
            return real_key(self, prompt, max_tokens, version)

        monkeypatch.setattr(LLMService, "_cache_key", counting_key)
        service = LLMService(SimulatedProvider())
        service.complete(PROMPT)  # miss: provider call, then the cache insert
        assert built == [PROMPT]
        service.prime([PROMPT + " Also this."])
        assert len(built) == 2


class _FirstRoundTripDown(_BatchRecorder):
    """The first round trip raises; every later one is served."""

    def complete_batch(self, requests):
        if not self.batches:
            self.batches.append([request.prompt for request in requests])
            raise ProviderError("connection reset")
        return super().complete_batch(requests)


class _FailsFirstAttempt(SimulatedProvider):
    """Fails the first attempt at each prompt in ``doomed`` — item by item,
    through the default ``complete_batch`` — and notes every attempt."""

    def __init__(self, doomed, retry_after=None):
        super().__init__()
        self.doomed = set(doomed)
        self.retry_after = retry_after or {}
        self.attempts: list[str] = []

    def complete(self, request):
        self.attempts.append(request.prompt)
        if request.prompt in self.doomed:
            self.doomed.discard(request.prompt)
            if request.prompt in self.retry_after:
                raise RateLimitError(retry_after=self.retry_after[request.prompt])
            raise ProviderError("transient")
        return super().complete(request)


def _shape(service: LLMService) -> list[tuple]:
    return [(r.prompt, r.cached, r.outcome, r.provenance) for r in service.records]


class TestCompleteMany:
    """One pass: the batch pays, each answer goes to the prompt that asked."""

    PROMPTS = [f"{PROMPT} (variant {i})" for i in range(6)]

    def test_cold_is_one_provider_record_per_prompt(self):
        provider = _BatchRecorder()
        service = LLMService(provider)
        texts = service.complete_many(self.PROMPTS, purpose="ask")
        assert texts == [SimulatedProvider().complete(LLMRequest(p)).text for p in self.PROMPTS]
        assert provider.batches == [self.PROMPTS]
        assert _shape(service) == [
            (p, False, "served", "provider") for p in self.PROMPTS
        ]
        assert (service.cache.stats.exact_hits, service.cache.stats.misses) == (0, 6)

    def test_warm_is_one_cache_hit_per_prompt(self):
        provider = _BatchRecorder()
        service = LLMService(provider)
        cold = service.complete_many(self.PROMPTS)
        service.reset_usage()
        assert service.complete_many(self.PROMPTS) == cold
        assert len(provider.batches) == 1
        assert _shape(service) == [
            (p, True, "cached", "cache-exact") for p in self.PROMPTS
        ]

    def test_a_repeated_prompt_is_paid_once_and_answered_in_order(self):
        provider = _BatchRecorder()
        service = LLMService(provider)
        a, b = PROMPT, "Which language is this? Text: The report was filed yesterday."
        texts = service.complete_many([a, b, a, a])
        assert texts[0] == texts[2] == texts[3] != texts[1]
        assert provider.batches == [[a, b]]
        assert [(r.prompt, r.cached) for r in service.records] == [
            (a, False), (b, False), (a, True), (a, True)
        ]

    def test_a_raising_round_trip_retries_every_item_in_it(self):
        provider = _FirstRoundTripDown()
        service = LLMService(provider, retry=_retries(2))
        texts = service.complete_many(self.PROMPTS)
        assert provider.batches == [self.PROMPTS, self.PROMPTS]
        assert texts == [SimulatedProvider().complete(LLMRequest(p)).text for p in self.PROMPTS]
        assert _shape(service) == [
            (p, False, "retried", "provider") for p in self.PROMPTS
        ]

    def test_budget_exhausted_mid_list_raises_at_that_prompt(self):
        service = LLMService(_BatchRecorder(), max_calls=2)
        service.complete_many(self.PROMPTS[:2])
        with pytest.raises(BudgetExceededError):
            service.complete_many(self.PROMPTS)
        # the two cached prompts were answered, the third raised
        assert [(r.prompt, r.cached) for r in service.records] == [
            (p, cached) for cached in (False, True) for p in self.PROMPTS[:2]
        ]

    def test_only_the_failed_item_is_retried(self):
        provider = _FailsFirstAttempt({self.PROMPTS[2]})
        service = LLMService(provider)
        assert service.prime(self.PROMPTS) == 6
        assert provider.attempts == self.PROMPTS + [self.PROMPTS[2]]  # 7, not 9
        assert [r.outcome for r in service.records] == (
            ["served"] * 2 + ["retried"] + ["served"] * 3
        )

    def test_a_retry_round_waits_for_its_longest_wait(self):
        a, b, c = self.PROMPTS[:3]
        provider = _FailsFirstAttempt({a, b}, retry_after={a: 2.0, b: 5.0})
        service = LLMService(provider)
        service.complete_many([a, b, c])
        assert provider.attempts == [a, b, c, a, b]
        latency = sum(r.latency_seconds for r in service.records)
        assert service.clock_seconds == pytest.approx(5.0 + latency)

    def test_the_ledger_is_a_prefetched_chunks_ledger(self):
        from repro.core.modules.llm_module import LLMModule
        from repro.core.modules.mapping import MapModule

        class Verbatim(LLMModule):
            def build_prompt(self, value, strictness: int = 0) -> str:
                return value

        prompts = self.PROMPTS + self.PROMPTS[1:3]
        direct = LLMService(SimulatedProvider())
        direct.complete_many(prompts, purpose="ask")
        chunked = LLMService(SimulatedProvider())
        MapModule("map", Verbatim("ask", chunked, "unused")).apply_chunk(prompts)
        assert direct.records == chunked.records
        assert direct.served_calls == 6 and direct.cached_calls == 2


class TestSimulatedProviderDeterminism:
    def test_same_prompt_same_answer(self):
        a = SimulatedProvider().complete(LLMRequest(prompt=PROMPT))
        b = SimulatedProvider().complete(LLMRequest(prompt=PROMPT))
        assert a.text == b.text

    def test_latency_model_positive(self):
        response = SimulatedProvider().complete(LLMRequest(prompt=PROMPT))
        assert response.latency_seconds > 0
