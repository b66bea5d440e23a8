"""The host sampler: ticks arrive during the interval, and it cleans up after itself."""

import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e.calibrate import REFERENCE_S, TICK_S, HostSampler, unit

ROOT = Path(__file__).resolve().parents[3]


def _busy(seconds: float) -> float:
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        sum(range(1000))
    return time.perf_counter() - started


def test_an_interval_shorter_than_a_tick_still_has_two_samples():
    with HostSampler() as host:
        pass
    assert len(host.samples) == 2
    assert host.seconds == 0.0  # entry and exit samples are outside the interval
    assert host.speed > 0


def test_ticks_arrive_during_the_interval_and_are_subtracted():
    with HostSampler() as host:
        raw = _busy(10 * TICK_S)
    ticks = len(host.samples) - 2
    assert 5 <= ticks <= 11
    assert 0 < host.seconds < raw
    assert host.calibrated(raw) == pytest.approx((raw - host.seconds) / host.speed)
    # a unit takes about REFERENCE_S here, so the speed is of order one
    assert 0.2 < host.speed < 20


def test_sleeps_are_resumed_not_cut_short_by_the_timer():
    with HostSampler():
        started = time.perf_counter()
        time.sleep(4 * TICK_S)
        assert time.perf_counter() - started >= 4 * TICK_S


def test_the_timer_and_the_previous_handler_are_restored():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        with HostSampler():
            1 / 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_the_unit_is_the_benchmarks_own_code():
    """Nothing of the program runs in a unit, so no change to it moves the yardstick."""
    assert 0 < unit() < 100 * REFERENCE_S
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, benchmarks.e2e.calibrate\n"
         "sys.exit(any(name.split('.')[0] == 'repro' for name in sys.modules))"],
        cwd=ROOT, timeout=60,
    )
    assert done.returncode == 0


def test_a_tick_that_interrupts_a_tick_is_skipped():
    host = HostSampler()
    host._in_tick = True
    host._tick(signal.SIGALRM, None)
    assert host.samples == []
    host._in_tick = False
    host._tick(signal.SIGALRM, None)
    assert len(host.samples) == 1
