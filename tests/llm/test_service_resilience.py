"""Tests for LLMService resilience: outcomes, retry jitter, deadline."""

from __future__ import annotations

import pytest

from repro.llm.errors import ProviderError, RateLimitError
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse, SimulatedProvider
from repro.llm.service import DEFAULT_RETRY_JITTER, LLMService
from repro.resilience import Deadline, RetryPolicy, VirtualClock

PROMPT = "Which language is this? Text: El informe fue presentado ayer."


def _retries(max_retries: int) -> RetryPolicy:
    """The service's default policy with a different retry budget."""
    return RetryPolicy(max_retries=max_retries, jitter=DEFAULT_RETRY_JITTER)


class DeadProvider(LLMProvider):
    """Always fails with a transient error."""

    model_name = "dead"

    def __init__(self):
        self.attempts = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        self.attempts += 1
        raise ProviderError("hard down")


class RateLimitStormProvider(LLMProvider):
    """Always rejects with a large retry_after."""

    model_name = "throttled"

    def __init__(self, retry_after: float = 60.0):
        self.retry_after = retry_after

    def complete(self, request: LLMRequest) -> LLMResponse:
        raise RateLimitError(retry_after=self.retry_after)


class TestCacheKey:
    def test_max_tokens_distinguishes_cache_entries(self):
        service = LLMService(SimulatedProvider())
        service.complete(PROMPT, max_tokens=256)
        service.complete(PROMPT, max_tokens=8)
        assert service.served_calls == 2  # not conflated
        assert service.cached_calls == 0
        service.complete(PROMPT, max_tokens=8)
        assert service.cached_calls == 1

    def test_truncation_respects_max_tokens_per_entry(self):
        service = LLMService(SimulatedProvider())
        service.complete(PROMPT, max_tokens=256)
        service.complete(PROMPT, max_tokens=1)
        long_record, short_record = service.records
        assert short_record.completion_tokens <= 1
        assert long_record.completion_tokens >= short_record.completion_tokens


class TestOutcomes:
    def test_clean_call_is_served(self):
        service = LLMService(SimulatedProvider())
        service.complete(PROMPT)
        assert service.records[-1].outcome == "served"

    def test_cache_hit_is_cached(self):
        service = LLMService(SimulatedProvider())
        service.complete(PROMPT)
        service.complete(PROMPT)
        assert service.records[-1].outcome == "cached"

    def test_retried_outcome_after_transient_failure(self):
        chaos = ChaosProvider(
            SimulatedProvider(),
            [FaultSpec(kind=FaultKind.TRANSIENT, rate=0.5)],
            seed=4,
        )
        service = LLMService(chaos, retry=_retries(6))
        for index in range(10):
            service.complete(f"summarize document number {index}")
        outcomes = {r.outcome for r in service.records}
        assert "retried" in outcomes and "served" in outcomes

    def test_gave_up_recorded_and_excluded_from_served(self):
        service = LLMService(DeadProvider(), retry=_retries(2))
        with pytest.raises(ProviderError):
            service.complete("anything at all")
        assert service.served_calls == 0
        assert service.failed_calls == 1
        assert service.records[-1].outcome == "gave_up"
        assert service.usage().failed_calls == 1

    def test_usage_counts_retries(self):
        chaos = ChaosProvider(
            SimulatedProvider(),
            [FaultSpec(kind=FaultKind.TRANSIENT, rate=0.5)],
            seed=4,
        )
        service = LLMService(chaos, retry=_retries(6))
        for index in range(10):
            service.complete(f"summarize document number {index}")
        assert service.usage().retries == sum(r.retries for r in service.records)
        assert service.usage().retries > 0

    def test_ledger_table_has_outcome_column(self):
        service = LLMService(SimulatedProvider())
        service.complete(PROMPT)
        table = service.ledger_table()
        assert "outcome" in table.schema.names


class FailOnceProvider(LLMProvider):
    """Fails each distinct prompt's first attempt, then serves it."""

    model_name = "fail-once"

    def __init__(self, clock):
        self.inner = SimulatedProvider()
        self.clock = clock
        self.attempt_times: dict[str, list[float]] = {}

    def complete(self, request: LLMRequest) -> LLMResponse:
        times = self.attempt_times.setdefault(request.prompt, [])
        times.append(self.clock.now)
        if len(times) == 1:
            raise ProviderError("first attempt always fails")
        return self.inner.complete(request)


class TestDefaultPolicyJitter:
    """The service's *default* retry policy desynchronizes retry storms.

    Non-zero seeded jitter, keyed on the prompt: concurrent callers that
    failed together do not all come back at the same instant, yet every
    delay is a pure function of (prompt, attempt) — deterministic across
    runs and thread arrival orders.
    """

    def test_default_policy_carries_jitter(self):
        service = LLMService(SimulatedProvider())
        assert service.retry.jitter == DEFAULT_RETRY_JITTER > 0

    def test_schedules_desynchronize_by_prompt(self):
        retry = LLMService(SimulatedProvider()).retry
        schedules = {
            prompt: tuple(retry.schedule(key=prompt))
            for prompt in (f"summarize document number {i}" for i in range(8))
        }
        assert len(set(schedules.values())) > 1  # not a thundering herd
        spread = {delays[0] for delays in schedules.values()}
        base = retry.backoff_seconds
        assert all(base <= d <= base * (1 + retry.jitter) for d in spread)

    def test_schedules_are_deterministic_across_services(self):
        first = LLMService(SimulatedProvider()).retry
        second = LLMService(SimulatedProvider()).retry
        for prompt in ("alpha", "beta", "gamma"):
            assert first.schedule(key=prompt) == second.schedule(key=prompt)

    def test_observed_retry_waits_match_the_schedule(self):
        clock = VirtualClock()
        provider = FailOnceProvider(clock)
        service = LLMService(provider, clock=clock)
        prompts = [f"classify ticket {i}" for i in range(4)]
        for prompt in prompts:
            service.complete(prompt)
        waits = {
            prompt: times[1] - times[0]
            for prompt, times in provider.attempt_times.items()
        }
        expected = {
            prompt: service.retry.delay(0, key=prompt) for prompt in prompts
        }
        assert waits == pytest.approx(expected)
        assert len(set(waits.values())) > 1


class TestDeadline:
    def test_rate_limit_storm_clock_is_bounded(self):
        service = LLMService(
            RateLimitStormProvider(retry_after=60.0),
            retry=RetryPolicy(max_retries=50),
            deadline=Deadline(10.0),
        )
        with pytest.raises(ProviderError):
            service.complete("anything")
        # Without the deadline this would be 50 * 60s; the deadline caps it.
        assert service.clock_seconds <= 10.0 + 1e-9

    def test_unbounded_without_deadline(self):
        service = LLMService(
            RateLimitStormProvider(retry_after=60.0), retry=RetryPolicy(max_retries=3)
        )
        with pytest.raises(ProviderError):
            service.complete("anything")
        assert service.clock_seconds == pytest.approx(180.0)  # 3 waits of 60s


class TestEndToEndDeterminism:
    def make_service(self):
        clock = VirtualClock()
        chaos = ChaosProvider(
            SimulatedProvider(),
            [
                FaultSpec(kind=FaultKind.TRANSIENT, rate=0.2),
                FaultSpec(kind=FaultKind.RATE_LIMIT, rate=0.1, retry_after=3.0),
            ],
            seed=42,
            clock=clock,
        )
        return LLMService(
            chaos,
            retry=RetryPolicy(max_retries=4, backoff_seconds=0.5, jitter=0.3),
            deadline=Deadline(30.0),
            clock=clock,
        )

    def test_identical_runs_produce_identical_ledgers(self):
        ledgers = []
        for _ in range(2):
            service = self.make_service()
            for index in range(30):
                service.complete(f"summarize document number {index}")
            ledgers.append(
                [(r.outcome, r.retries, r.latency_seconds) for r in service.records]
            )
        assert ledgers[0] == ledgers[1]
