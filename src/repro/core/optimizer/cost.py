"""The bill of a pipeline run.

The paper's "Highly Performant" property is economic: minimise LLM calls.
A run report's :class:`CostSnapshot` is the totals of its per-operator
profile (:func:`repro.core.compiler.plan.close_report`), and
:class:`CostComparison` renders the head-to-head numbers the section 4.3
experiment reports (the 1/6-calls claim).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostSnapshot", "CostComparison"]


@dataclass(frozen=True)
class CostSnapshot:
    """What one run cost: the totals of its profile.

    The resilience counters (retries, failed calls) show
    what the reliability layer spent to deliver the run — the "extra cost
    of robustness" number the chaos benchmark reports.
    """

    served_calls: int
    cached_calls: int
    cost: float
    latency_seconds: float
    retries: int = 0
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
        if self.retries or self.failed_calls:
            text += f" retries={self.retries} failed={self.failed_calls}"
        return text


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
