"""Cost model and budget tracking for pipelines.

The paper's "Highly Performant" property is economic: minimise LLM calls.
:class:`CostTracker` snapshots the LLM service ledger around a pipeline run
so every run report can state exactly what it cost, and
:class:`CostComparison` renders the head-to-head numbers the section 4.3
experiment reports (the 1/6-calls claim).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.service import LLMService, UsageSummary

__all__ = ["CostSnapshot", "CostTracker", "CostComparison"]


@dataclass(frozen=True)
class CostSnapshot:
    """Usage delta between two points in time.

    The resilience counters (retries, fallback calls, failed calls) show
    what the reliability layer spent to deliver the run — the "extra cost
    of robustness" number the chaos benchmark reports.
    """

    served_calls: int
    cached_calls: int
    cost: float
    latency_seconds: float
    retries: int = 0
    fallback_calls: int = 0
    failed_calls: int = 0
    distilled_calls: int = 0
    #: virtual latency of provider-path calls only; ``latency_seconds``
    #: minus cached/distilled time.
    provider_seconds: float = 0.0
    #: virtual latency spent in distilled local-model answers, under its
    #: own key instead of folded into provider time.
    distilled_seconds: float = 0.0

    def to_text(self) -> str:
        """One-line rendering."""
        text = (
            f"llm_calls={self.served_calls} (+{self.cached_calls} cached) "
            f"cost=${self.cost:.4f} latency={self.latency_seconds:.1f}s"
        )
        if self.distilled_calls:
            text += f" distilled={self.distilled_calls}"
        if self.retries or self.fallback_calls or self.failed_calls:
            text += (
                f" retries={self.retries} fallbacks={self.fallback_calls} "
                f"failed={self.failed_calls}"
            )
        return text


class CostTracker:
    """Measure the LLM usage of a code region.

    Use as a context manager::

        with CostTracker(service) as tracker:
            plan.execute(data)
        print(tracker.snapshot.to_text())
    """

    def __init__(self, service: LLMService):
        self.service = service
        self._before: UsageSummary | None = None
        self.snapshot: CostSnapshot | None = None

    def __enter__(self) -> "CostTracker":
        self._before = self.service.usage()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        after = self.service.usage()
        assert self._before is not None
        self.snapshot = CostSnapshot(
            served_calls=after.served_calls - self._before.served_calls,
            cached_calls=after.cached_calls - self._before.cached_calls,
            cost=after.cost - self._before.cost,
            latency_seconds=after.latency_seconds - self._before.latency_seconds,
            retries=after.retries - self._before.retries,
            fallback_calls=after.fallback_calls - self._before.fallback_calls,
            failed_calls=after.failed_calls - self._before.failed_calls,
            distilled_calls=after.distilled_calls - self._before.distilled_calls,
            provider_seconds=after.provider_seconds - self._before.provider_seconds,
            distilled_seconds=(
                after.distilled_seconds - self._before.distilled_seconds
            ),
        )


@dataclass
class CostComparison:
    """Two named cost snapshots and their ratio (the paper's 1/6 claim)."""

    baseline_name: str
    baseline: CostSnapshot
    optimized_name: str
    optimized: CostSnapshot

    def call_ratio(self) -> float:
        """Optimized LLM calls as a fraction of baseline calls."""
        if self.baseline.served_calls == 0:
            return 0.0
        return self.optimized.served_calls / self.baseline.served_calls

    def to_text(self) -> str:
        """Readable comparison block."""
        ratio = self.call_ratio()
        return "\n".join(
            [
                f"{self.baseline_name}: {self.baseline.to_text()}",
                f"{self.optimized_name}: {self.optimized.to_text()}",
                f"call ratio ({self.optimized_name}/{self.baseline_name}): "
                f"{ratio:.3f} (~1/{round(1 / ratio) if ratio > 0 else 'inf'})",
            ]
        )
