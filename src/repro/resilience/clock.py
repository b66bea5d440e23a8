"""The virtual clock resilience policies schedule against.

Nothing in this reproduction sleeps.  Latencies, backoff waits, rate-limit
cooldowns and outage windows all advance a shared :class:`VirtualClock`, so
a chaos experiment that models minutes of provider downtime still runs in
milliseconds and replays byte-identically.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing virtual timeline (seconds)."""

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def advance(self, seconds: float) -> float:
        """Move time forward; negative advances are clamped to zero."""
        if seconds > 0:
            self.now += seconds
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"VirtualClock(now={self.now:.3f})"
