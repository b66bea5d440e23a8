"""Tests for repro.resilience: virtual clock, retry policy, deadline."""

from __future__ import annotations

import pytest

from repro.resilience import Deadline, RetryPolicy, VirtualClock


class TestVirtualClock:
    def test_advances(self, virtual_clock):
        virtual_clock.advance(1.5)
        virtual_clock.advance(2.5)
        assert virtual_clock.now == pytest.approx(4.0)

    def test_negative_advance_clamped(self):
        clock = VirtualClock(now=3.0)
        clock.advance(-10.0)
        assert clock.now == pytest.approx(3.0)

    def test_reset(self):
        clock = VirtualClock(now=9.0)
        clock.reset()
        assert clock.now == 0.0


class TestRetryPolicy:
    @pytest.mark.parametrize(
        ("base", "multiplier", "expected"),
        [
            (0.5, 2.0, [0.5, 1.0, 2.0]),
            (1.0, 3.0, [1.0, 3.0, 9.0]),
            (0.25, 1.0, [0.25, 0.25, 0.25]),
        ],
    )
    def test_backoff_sequence_without_jitter(self, base, multiplier, expected):
        policy = RetryPolicy(max_retries=3, backoff_seconds=base, multiplier=multiplier)
        assert policy.schedule() == pytest.approx(expected)

    def test_backoff_capped(self):
        policy = RetryPolicy(
            max_retries=6, backoff_seconds=1.0, multiplier=10.0, max_backoff_seconds=50.0
        )
        assert max(policy.schedule()) == pytest.approx(50.0)

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(max_retries=4, jitter=0.5, seed="s")
        b = RetryPolicy(max_retries=4, jitter=0.5, seed="s")
        assert a.schedule(key=7) == b.schedule(key=7)

    def test_jitter_varies_with_key(self):
        policy = RetryPolicy(max_retries=4, jitter=0.5)
        assert policy.schedule(key=1) != policy.schedule(key=2)

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
