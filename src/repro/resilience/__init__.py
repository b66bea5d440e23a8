"""Resilience layer: virtual clock and retry/deadline policies.

Lingua Manga treats the LLM as an unreliable, expensive black box.  This
package supplies the machinery the service uses to absorb transient
provider failures instead of aborting pipelines:

- :class:`VirtualClock` — the shared virtual timeline every policy reasons on.
- :class:`RetryPolicy` / :class:`Deadline` — bounded, deterministic retries,
  passed to :class:`LLMService` as ``retry=`` / ``deadline=``.

All waiting happens on the virtual clock, so chaos experiments replay
instantly and deterministically.
"""

from repro.resilience.clock import VirtualClock
from repro.resilience.policy import (
    OUTCOME_CACHED,
    OUTCOME_GAVE_UP,
    OUTCOME_RETRIED,
    OUTCOME_SERVED,
    SUCCESS_OUTCOMES,
    Deadline,
    RetryPolicy,
)

__all__ = [
    "VirtualClock",
    "Deadline",
    "RetryPolicy",
    "OUTCOME_CACHED",
    "OUTCOME_GAVE_UP",
    "OUTCOME_RETRIED",
    "OUTCOME_SERVED",
    "SUCCESS_OUTCOMES",
]
