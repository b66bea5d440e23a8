"""Tests for the chaos harness: seeded, schedulable fault injection."""

from __future__ import annotations

import pytest

from repro.llm.errors import ProviderError, RateLimitError
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import LLMRequest, SimulatedProvider

PROMPT = "Which language is this? Text: El informe fue presentado ayer."


def make_chaos(faults, seed="chaos", clock=None):
    return ChaosProvider(SimulatedProvider(), faults, seed=seed, clock=clock)


def outcome(provider, request):
    """One call's outcome label: ``ok``, ``rate_limit`` or ``error``."""
    try:
        provider.complete(request)
    except RateLimitError:
        return "rate_limit"
    except ProviderError:
        return "error"
    return "ok"


def drive(provider, n_calls):
    """Call the provider n times; returns the per-call outcome labels."""
    return [
        outcome(provider, LLMRequest(prompt=f"summarize item number {index}"))
        for index in range(n_calls)
    ]


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor_strike")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.TRANSIENT, rate=1.5)

    @pytest.mark.parametrize("field", ["retry_after"])
    def test_negative_magnitude_rejected(self, field):
        # A negative cooldown is meaningless.
        with pytest.raises(ValueError, match=field):
            FaultSpec(kind=FaultKind.LATENCY, **{field: -1})

    @pytest.mark.parametrize("start, end", [(20.0, 10.0), (10.0, 10.0)])
    def test_empty_window_rejected(self, start, end):
        # A window that can never be active is a silently dormant spec.
        with pytest.raises(ValueError, match="window"):
            FaultSpec(kind=FaultKind.OUTAGE, start=start, end=end)

    def test_zero_magnitudes_accepted(self):
        spec = FaultSpec(kind=FaultKind.MALFORMED, retry_after=0)
        assert spec.retry_after == 0

    def test_window_activation(self):
        spec = FaultSpec(kind=FaultKind.OUTAGE, start=10.0, end=20.0)
        assert not spec.active_at(9.9)
        assert spec.active_at(10.0)
        assert spec.active_at(19.9)
        assert not spec.active_at(20.0)


class TestChaosDeterminism:
    def test_same_seed_replays_identically(self):
        faults = [
            FaultSpec(kind=FaultKind.TRANSIENT, rate=0.3),
            FaultSpec(kind=FaultKind.RATE_LIMIT, rate=0.2, retry_after=2.0),
        ]
        first = drive(make_chaos(faults, seed=11), 60)
        second = drive(make_chaos(faults, seed=11), 60)
        assert first == second
        assert "error" in first and "rate_limit" in first and "ok" in first

    def test_different_seed_differs(self):
        faults = [FaultSpec(kind=FaultKind.TRANSIENT, rate=0.5)]
        assert drive(make_chaos(faults, seed=1), 60) != drive(
            make_chaos(faults, seed=2), 60
        )

    def test_a_draw_is_a_function_of_prompt_and_attempt(self):
        # No state: asking again, in any order, draws the same faults; the
        # retry round stamped on the request is what moves the draw, and
        # an unstamped request is attempt 1.
        chaos = make_chaos([FaultSpec(kind=FaultKind.TRANSIENT, rate=0.5)], seed=5)
        forward = drive(chaos, 40)
        backward = [
            outcome(chaos, LLMRequest(prompt=f"summarize item number {index}"))
            for index in reversed(range(40))
        ]
        assert backward[::-1] == forward
        by_attempt = [
            outcome(chaos, LLMRequest(prompt=PROMPT, metadata={"attempt": attempt}))
            for attempt in range(1, 21)
        ]
        assert {"ok", "error"} <= set(by_attempt)
        assert outcome(chaos, LLMRequest(prompt=PROMPT)) == by_attempt[0]

    def test_injected_counter_counts_by_kind(self):
        faults = [FaultSpec(kind=FaultKind.TRANSIENT, rate=0.5)]
        chaos = make_chaos(faults, seed=3)
        outcomes = drive(chaos, 50)
        assert chaos.injected[FaultKind.TRANSIENT] == outcomes.count("error")


class TestFaultKinds:
    def test_transient_rate_one_always_fails(self):
        chaos = make_chaos([FaultSpec(kind=FaultKind.TRANSIENT, rate=1.0)])
        assert drive(chaos, 5) == ["error"] * 5

    def test_rate_zero_never_fails(self):
        chaos = make_chaos([FaultSpec(kind=FaultKind.TRANSIENT, rate=0.0)])
        assert drive(chaos, 5) == ["ok"] * 5

    def test_rate_limit_carries_retry_after(self):
        chaos = make_chaos(
            [FaultSpec(kind=FaultKind.RATE_LIMIT, rate=1.0, retry_after=7.5)]
        )
        with pytest.raises(RateLimitError) as excinfo:
            chaos.complete(LLMRequest(prompt=PROMPT))
        assert excinfo.value.retry_after == 7.5

    def test_outage_window_on_virtual_clock(self, virtual_clock):
        chaos = make_chaos(
            [FaultSpec(kind=FaultKind.OUTAGE, start=10.0, end=20.0)],
            clock=virtual_clock,
        )
        request = LLMRequest(prompt=PROMPT)
        assert chaos.complete(request).text  # before the window: healthy
        virtual_clock.advance(15.0)
        with pytest.raises(ProviderError):
            chaos.complete(request)
        virtual_clock.advance(10.0)  # past the window: healthy again
        assert chaos.complete(request).text

    def test_latency_spike_adds_seconds(self):
        request = LLMRequest(prompt=PROMPT)
        baseline = SimulatedProvider().complete(request).latency_seconds
        chaos = make_chaos(
            [FaultSpec(kind=FaultKind.LATENCY, rate=1.0)]
        )
        spiked = chaos.complete(request).latency_seconds
        assert spiked == pytest.approx(baseline + 5.0)

    def test_malformed_truncates_completion(self):
        request = LLMRequest(prompt=PROMPT)
        full = SimulatedProvider().complete(request).text
        chaos = make_chaos(
            [FaultSpec(kind=FaultKind.MALFORMED, rate=1.0)]
        )
        assert chaos.complete(request).text == full[:5]

    def test_model_name_passthrough(self):
        chaos = make_chaos([])
        assert chaos.model_name == "sim-gpt-2023"
