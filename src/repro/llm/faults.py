"""Deterministic fault injection: the chaos harness for the LLM substrate.

:class:`ChaosProvider` wraps any :class:`LLMProvider` and injects faults
according to a declarative list of :class:`FaultSpec` schedules: transient
``ProviderError`` bursts, ``RateLimitError`` storms, latency spikes,
truncated/malformed completions, and hard outage windows on the virtual
clock.  Every decision is a stable hash of ``(seed, call index, spec
index)``, so a chaos run with a fixed seed replays byte-identically —
robustness becomes a reproducible, benchmarkable property instead of a
flaky one.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, replace

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
    ``chunk:journaled``, ``operator:committed`` — the streaming work queue
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
    LATENCY = "latency"  # serve, but add extra_latency seconds
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
    extra_latency:
        Seconds added to the response for ``latency`` spikes.
    truncate_to:
        Characters kept of the completion for ``malformed`` faults.
    """

    kind: str
    rate: float = 1.0
    start: float | None = None
    end: float | None = None
    retry_after: float = 1.0
    extra_latency: float = 5.0
    truncate_to: int = 5

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FaultKind.ALL}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

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

    ``key_mode`` selects how fault decisions are keyed:

    - ``"arrival"`` (default, legacy): a global call counter — replayable
      for strictly sequential execution, but dependent on arrival order.
    - ``"content"``: the prompt text plus that prompt's own attempt
      counter — a given prompt's fault schedule is identical no matter when
      (or on which thread) it arrives, which is what makes chaos runs under
      the parallel scheduler byte-identical at any worker count.

    ``schedule_preview`` only models ``"arrival"`` keying.
    """

    KEY_MODES = ("arrival", "content")

    def __init__(
        self,
        inner: LLMProvider,
        faults: list[FaultSpec],
        seed: int | str = "chaos",
        clock: VirtualClock | None = None,
        key_mode: str = "arrival",
    ):
        if key_mode not in self.KEY_MODES:
            raise ValueError(
                f"unknown key_mode {key_mode!r}; known: {self.KEY_MODES}"
            )
        self.inner = inner
        self.model_name = inner.model_name
        self.faults = list(faults)
        self.seed = seed
        self.clock = clock or VirtualClock()
        self.key_mode = key_mode
        self.injected: Counter[str] = Counter()
        self.calls = 0
        self._attempts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def schedule_preview(self, n_calls: int) -> list[list[str]]:
        """The fault kinds that *would* fire on the next ``n_calls`` calls.

        Window-gated specs are evaluated at the current clock; the preview
        is what makes chaos schedules assertable before a run.
        """
        now = self.clock.now
        preview: list[list[str]] = []
        for call in range(self.calls + 1, self.calls + n_calls + 1):
            fired = [
                spec.kind
                for index, spec in enumerate(self.faults)
                if spec.active_at(now)
                and (
                    spec.kind == FaultKind.OUTAGE
                    or stable_unit(self.seed, call, index) < spec.rate
                )
            ]
            preview.append(fired)
        return preview

    def fault_state(self) -> dict:
        """Snapshot of the mutable fault-decision state (JSON-safe).

        The checkpoint runtime records this at operator commit boundaries:
        content-keyed fault decisions depend on each prompt's attempt
        counter, so a resumed run must restore the counters or incomplete
        prompts would re-draw their fault schedules from attempt one.
        """
        with self._lock:
            return {
                "calls": self.calls,
                "attempts": dict(self._attempts),
                "injected": dict(self.injected),
            }

    def restore_fault_state(self, state: dict) -> None:
        """Restore a :meth:`fault_state` snapshot (checkpoint resume)."""
        with self._lock:
            self.calls = int(state.get("calls", 0))
            self._attempts = Counter(
                {str(k): int(v) for k, v in state.get("attempts", {}).items()}
            )
            self.injected = Counter(
                {str(k): int(v) for k, v in state.get("injected", {}).items()}
            )

    def _decision_key(self, request: LLMRequest) -> tuple[object, ...]:
        """The stable-hash parts that decide this call's faults."""
        with self._lock:
            self.calls += 1
            if self.key_mode == "content":
                self._attempts[request.prompt] += 1
                return (request.prompt, self._attempts[request.prompt])
            return (self.calls,)

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Serve the request, injecting any scheduled faults."""
        key = self._decision_key(request)
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
            if stable_unit(self.seed, *key, index) >= spec.rate:
                continue
            with self._lock:
                self.injected[spec.kind] += 1
            tag = "attempt" if self.key_mode == "content" else "call"
            if spec.kind == FaultKind.TRANSIENT:
                raise ProviderError(
                    f"chaos: injected transient failure ({tag} {key[-1]})"
                )
            if spec.kind == FaultKind.RATE_LIMIT:
                raise RateLimitError(
                    f"chaos: injected rate limit ({tag} {key[-1]})",
                    retry_after=spec.retry_after,
                )
            mutations.append(spec)  # latency / malformed apply post-response
        response = self.inner.complete(request)
        for spec in mutations:
            if spec.kind == FaultKind.LATENCY:
                response = replace(
                    response,
                    latency_seconds=response.latency_seconds + spec.extra_latency,
                )
            elif spec.kind == FaultKind.MALFORMED:
                response = replace(response, text=response.text[: spec.truncate_to])
        return response
