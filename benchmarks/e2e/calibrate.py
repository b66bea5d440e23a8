"""Calibrated seconds: timings stated on a yardstick the host cannot stretch.

The benchmark runs on a few cores of a shared host whose speed for CPU-bound
Python swings by a factor of up to two, second by second and for minutes on
end (see *Noise* in the README): raw wall seconds of the same code spread by
30-55 % between invocations.  A slow spell slows everything in it, so no
choice among an invocation's runs - median, quartile, fastest - removes it.
What does is measuring the host *while* the interval runs.

:class:`HostSampler` arms an interval timer; every ``TICK_S`` its handler
does one fixed :func:`unit` of pure-Python work in the main thread, between
two bytecodes of the code being timed, and records how long the unit took.
A unit that takes twice ``REFERENCE_S`` says the host is at half speed right
now.  The interval is then reported as::

    (raw seconds - seconds spent in the ticks) / host speed

that is, the seconds it would take on a host where a unit takes
``REFERENCE_S``.  Raw seconds are kept beside every calibrated value.

The unit is the benchmark's own code over constant inputs and calls nothing
in ``repro``, so no change to the program can move it; it mixes what the
workloads spend their time on (string building, ``re``, ``json``,
``hashlib``, dict and list work) so that it slows down with them.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
import statistics
import time

__all__ = ["REFERENCE_S", "TICK_S", "unit", "HostSampler"]

#: Seconds one unit takes on this repo's sandbox in a calm hour.  A constant
#: of the metric's definition, not a measurement: it only sets the scale in
#: which calibrated seconds are stated, and must never be re-tuned.
REFERENCE_S = 0.001
#: Seconds between ticks: ~5 % of the interval goes to the ticks (and is
#: subtracted again), and the shortest full-size run still gets ~20 of them.
TICK_S = 0.020

_WORD = re.compile(r"[a-z0-9]+")
_ROWS = [
    {"id": i, "name": f"brew {i % 89} co. {'pale lager stout porter'.split()[i % 4]}",
     "abv": (i * 37 % 90) / 10.0, "tags": [f"t{i % 7}", f"u{i % 11}"]}
    for i in range(65)
]


def unit() -> float:
    """Do one unit of work; return the seconds it took."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    digest = hashlib.blake2b(digest_size=16)
    for row in _ROWS:
        prompt = "Are these the same entity?\n" + "\n".join(
            f"{key}: {value}" for key, value in row.items()
        )
        for token in _WORD.findall(prompt.lower()):
            counts[token] = counts.get(token, 0) + 1
        line = json.dumps(row, sort_keys=True)
        digest.update(line.encode("utf-8"))
        json.loads(line)
    sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    digest.hexdigest()
    return time.perf_counter() - started


class HostSampler:
    """Context manager around a timed interval; main thread only.

    Takes one sample on entry, one every ``TICK_S`` (``SIGALRM``) and one on
    exit, so even an interval shorter than a tick has two.  System calls the
    timer interrupts are resumed by Python itself (PEP 475).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._in_tick = False

    def _tick(self, signum, frame) -> None:
        # A unit that a stall stretches past TICK_S is interrupted by the next
        # signal: skip that tick, or the stall would be counted twice.
        if self._in_tick:
            return
        self._in_tick = True
        try:
            self.samples.append(unit())
        finally:
            self._in_tick = False

    def __enter__(self) -> "HostSampler":
        self.samples.append(unit())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(unit())

    @property
    def seconds(self) -> float:
        """Seconds of the interval that went to the ticks themselves."""
        return sum(self.samples[1:-1])

    @property
    def speed(self) -> float:
        """Seconds per unit during the interval as a multiple of REFERENCE_S
        (1.0 = the reference host, 2.0 = half its speed): the mean of the
        samples without the lowest and the highest tenth, which a tick landing
        in a cold cache or a preemption would otherwise own."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S

    def calibrated(self, raw: float) -> float:
        """``raw`` seconds of the sampled interval, in calibrated seconds."""
        return (raw - self.seconds) / self.speed
