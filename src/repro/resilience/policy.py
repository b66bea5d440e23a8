"""Resilience policies: retries and deadlines, as ``LLMService`` takes them.

Every knob is deterministic: backoff jitter comes from a stable hash of the
call index, and all waiting is virtual-clock time, so a chaos run with a
fixed seed reproduces the exact same retry schedule every time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import stable_unit

__all__ = [
    "RetryPolicy",
    "Deadline",
    "OUTCOME_SERVED",
    "OUTCOME_CACHED",
    "OUTCOME_RETRIED",
    "OUTCOME_GAVE_UP",
    "SUCCESS_OUTCOMES",
]

# Per-call resilience outcomes recorded in the service ledger.
OUTCOME_SERVED = "served"  # first attempt succeeded
OUTCOME_CACHED = "cached"  # answered from the local response cache
OUTCOME_RETRIED = "retried"  # succeeded after >= 1 retry
OUTCOME_GAVE_UP = "gave_up"  # every retry exhausted

SUCCESS_OUTCOMES = (OUTCOME_SERVED, OUTCOME_CACHED, OUTCOME_RETRIED)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and a retry budget.

    ``delay(attempt, key)`` is the wait after failed attempt ``attempt``
    (0-based).  Jitter is a deterministic fraction of the base delay keyed
    on ``(seed, key, attempt)`` so concurrent callers de-synchronise but a
    rerun reproduces the identical schedule.
    """

    max_retries: int = 3
    backoff_seconds: float = 0.5
    multiplier: float = 2.0
    max_backoff_seconds: float = 60.0
    jitter: float = 0.0  # max extra delay as a fraction of the base delay
    seed: str = "retry"

    def delay(self, attempt: int, key: object = 0) -> float:
        """Backoff after the ``attempt``-th failure (deterministic)."""
        base = min(
            self.backoff_seconds * self.multiplier**attempt, self.max_backoff_seconds
        )
        if self.jitter <= 0:
            return base
        return base * (1.0 + self.jitter * stable_unit(self.seed, key, attempt))

    def schedule(self, key: object = 0) -> list[float]:
        """The full backoff sequence for one call (for tests and reports)."""
        return [self.delay(attempt, key) for attempt in range(self.max_retries)]


@dataclass(frozen=True)
class Deadline:
    """Caps the total virtual-clock time one call may spend waiting.

    This is what keeps a storm of ``retry_after=60`` rate-limit responses
    from inflating the virtual clock unboundedly: cumulative waits are
    clamped to ``max_seconds`` and the call gives up once they are spent.
    """

    max_seconds: float

    def remaining(self, elapsed: float) -> float:
        """Wait budget left after ``elapsed`` seconds have been spent."""
        return max(0.0, self.max_seconds - elapsed)

    def exhausted(self, elapsed: float) -> bool:
        """Whether the budget is spent."""
        return elapsed >= self.max_seconds

    def clamp(self, wait: float, elapsed: float) -> float:
        """Clip a proposed wait to the remaining budget."""
        return min(wait, self.remaining(elapsed))
