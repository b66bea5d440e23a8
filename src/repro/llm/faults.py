"""Deterministic fault injection: the chaos harness for the LLM substrate.

:class:`ChaosProvider` wraps any :class:`LLMProvider` and injects faults
according to a declarative list of :class:`FaultSpec` schedules: transient
``ProviderError`` bursts, ``RateLimitError`` storms, latency spikes,
truncated/malformed completions, and hard outage windows on the virtual
clock.  Every decision is a stable hash of ``(seed, prompt, attempt, spec
index)``, so a chaos run with a fixed seed replays byte-identically at any
worker count and across a resume — robustness becomes a reproducible,
benchmarkable property instead of a flaky one.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro._util import stable_unit
from repro.llm.errors import ProviderError, RateLimitError
from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse
from repro.resilience.clock import VirtualClock

__all__ = [
    "FaultKind",
    "FaultSpec",
    "ChaosProvider",
    "CrashInjected",
    "CrashPoint",
]


class CrashInjected(BaseException):
    """Simulated process death raised by a :class:`CrashPoint`.

    Derives from :class:`BaseException` deliberately: the resilience layer
    and the record-quarantine machinery catch ``Exception`` broadly, and a
    crash must never be absorbed as one more recoverable record failure —
    a real ``kill -9`` would not be.
    """

    def __init__(self, boundary: str, hit: int):
        super().__init__(f"injected crash at boundary {boundary!r} (hit {hit})")
        self.boundary = boundary
        self.hit = hit


class CrashPoint:
    """Kill execution the Nth time a named boundary is reached.

    The checkpoint runtime (:mod:`repro.core.runtime.checkpoint`) announces
    named execution boundaries — ``chunk:entered``, ``chunk:executed``,
    ``chunk:journaled``, ``operator:committed`` — the streaming executor
    ``shard:claimed``, ``shard:executed``, ``shard:journaled``, and the
    cache journal ``compaction:tmp-written``.  A crash point armed on one of
    them raises :class:`CrashInjected` on its ``hits``-th arrival, which
    unwinds the run exactly as process death would: whatever the write-ahead
    journal durably holds is all a resume gets to see.

    Thread safe: boundaries are reached from scheduler worker threads.
    ``fired`` records whether the crash actually triggered (a probe run
    with ``hits`` beyond the boundary count leaves it false) and ``seen``
    counts arrivals per boundary name, which is how the crash-matrix tests
    enumerate "every chunk boundary" before killing at each one.
    """

    def __init__(self, boundary: str, hits: int = 1):
        if hits < 1:
            raise ValueError("hits must be at least 1")
        self.boundary = boundary
        self.hits = hits
        self.fired = False
        self.seen: Counter[str] = Counter()
        self._lock = threading.Lock()

    def reached(self, boundary: str) -> None:
        """Announce one boundary arrival; raises when the armed hit lands."""
        with self._lock:
            self.seen[boundary] += 1
            if boundary != self.boundary or self.fired:
                return
            if self.seen[boundary] == self.hits:
                self.fired = True
                raise CrashInjected(boundary, self.hits)


class FaultKind:
    """The catalogue of injectable fault kinds."""

    TRANSIENT = "transient"  # raise ProviderError
    RATE_LIMIT = "rate_limit"  # raise RateLimitError(retry_after=...)
    LATENCY = "latency"  # serve, but 5 seconds late
    MALFORMED = "malformed"  # serve, but truncate the completion text
    OUTAGE = "outage"  # fail everything inside the [start, end) window

    ALL = (TRANSIENT, RATE_LIMIT, LATENCY, MALFORMED, OUTAGE)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault schedule.

    Parameters
    ----------
    kind:
        One of :class:`FaultKind`.
    rate:
        Per-call injection probability (ignored for ``outage``, which always
        fires inside its window).
    start / end:
        Optional virtual-clock window ``[start, end)`` outside which the
        spec is dormant.  ``None`` means unbounded on that side.
    retry_after:
        Cooldown attached to injected :class:`RateLimitError` responses.

    A ``latency`` spike adds 5 seconds to the response; a ``malformed``
    fault keeps the completion's first 5 characters.
    """

    kind: str
    rate: float = 1.0
    start: float | None = None
    end: float | None = None
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FaultKind.ALL}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.retry_after < 0:
            raise ValueError("retry_after must not be negative")
        if self.start is not None and self.end is not None and self.start >= self.end:
            raise ValueError("window start must be before its end")

    def active_at(self, now: float) -> bool:
        """Whether the spec's window covers virtual time ``now``."""
        if self.start is not None and now < self.start:
            return False
        if self.end is not None and now >= self.end:
            return False
        return True


class ChaosProvider(LLMProvider):
    """Seeded, schedulable fault injection over any provider.

    Faults are evaluated in declaration order; the first one that fires for
    an error kind raises, while ``latency``/``malformed`` faults mutate the
    inner provider's response on the way out (and compose if several fire).
    ``injected`` counts fired faults by kind for assertions and reports.

    A draw is a stable hash of ``(seed, prompt, attempt, spec index)``,
    where ``attempt`` is the retry round the service stamps on the request
    (``metadata["attempt"]``, counted from 1; an unstamped request is
    attempt 1).  The provider keeps no decision state, so a prompt's faults
    are the same at any worker count, in any arrival order and across a
    crash and resume.
    """

    def __init__(
        self,
        inner: LLMProvider,
        faults: list[FaultSpec],
        seed: int | str = "chaos",
        clock: VirtualClock | None = None,
    ):
        self.inner = inner
        self.model_name = inner.model_name
        self.faults = list(faults)
        self.seed = seed
        self.clock = clock or VirtualClock()
        self.injected: Counter[str] = Counter()
        self._lock = threading.Lock()

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Serve the request, injecting any scheduled faults."""
        attempt = request.metadata.get("attempt", 1)
        now = self.clock.now
        mutations: list[FaultSpec] = []
        for index, spec in enumerate(self.faults):
            if not spec.active_at(now):
                continue
            if spec.kind == FaultKind.OUTAGE:
                with self._lock:
                    self.injected[spec.kind] += 1
                raise ProviderError(
                    f"chaos: hard outage window at t={now:.1f}s"
                )
            if stable_unit(self.seed, request.prompt, attempt, index) >= spec.rate:
                continue
            with self._lock:
                self.injected[spec.kind] += 1
            if spec.kind == FaultKind.TRANSIENT:
                raise ProviderError(
                    f"chaos: injected transient failure (attempt {attempt})"
                )
            if spec.kind == FaultKind.RATE_LIMIT:
                raise RateLimitError(
                    f"chaos: injected rate limit (attempt {attempt})",
                    retry_after=spec.retry_after,
                )
            mutations.append(spec)  # latency / malformed apply post-response
        response = self.inner.complete(request)
        for spec in mutations:
            if spec.kind == FaultKind.LATENCY:
                response = response._replace(
                    latency_seconds=response.latency_seconds + 5.0,
                )
            elif spec.kind == FaultKind.MALFORMED:
                response = response._replace(text=response.text[:5])
        return response
