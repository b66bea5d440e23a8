"""Tests for repro.resilience: virtual clock, retry policy, deadline."""

from __future__ import annotations

import pytest

from repro.resilience import Deadline, RetryPolicy, VirtualClock
from tests.oracles import retry_schedule


class TestVirtualClock:
    def test_advances(self, virtual_clock):
        virtual_clock.advance(1.5)
        virtual_clock.advance(2.5)
        assert virtual_clock.now == pytest.approx(4.0)

    def test_negative_advance_clamped(self):
        clock = VirtualClock(now=3.0)
        clock.advance(-10.0)
        assert clock.now == pytest.approx(3.0)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        ("base", "multiplier", "expected"),
        [(0.5, 2.0, [0.5, 1.0, 2.0])],
    )
    def test_backoff_sequence_without_jitter(self, base, multiplier, expected):
        policy = RetryPolicy(max_retries=3, backoff_seconds=base)
        assert retry_schedule(policy) == pytest.approx(expected)
        assert policy.delay(1) / policy.delay(0) == multiplier

    def test_backoff_capped(self):
        policy = RetryPolicy(max_retries=8, backoff_seconds=1.0)
        assert max(retry_schedule(policy)) == pytest.approx(60.0)

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(max_retries=4, jitter=0.5)
        b = RetryPolicy(max_retries=4, jitter=0.5)
        assert retry_schedule(a, key=7) == retry_schedule(b, key=7)

    def test_jitter_varies_with_key(self):
        policy = RetryPolicy(max_retries=4, jitter=0.5)
        assert retry_schedule(policy, key=1) != retry_schedule(policy, key=2)

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(max_retries=1, backoff_seconds=1.0, jitter=0.25)
        delay = policy.delay(0, key=3)
        assert 1.0 <= delay <= 1.25


class TestDeadline:
    def test_remaining_and_exhausted(self):
        deadline = Deadline(10.0)
        assert deadline.remaining(4.0) == pytest.approx(6.0)
        assert not deadline.exhausted(9.99)
        assert deadline.exhausted(10.0)
        assert deadline.remaining(15.0) == 0.0

    def test_clamp_caps_waits(self):
        deadline = Deadline(10.0)
        assert deadline.clamp(60.0, elapsed=7.0) == pytest.approx(3.0)
        assert deadline.clamp(1.0, elapsed=7.0) == pytest.approx(1.0)
