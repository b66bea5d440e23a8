"""Observability for Lingua Manga runs: tracing, metrics and profiling.

The paper's optimizer and cost claims hinge on *seeing* what a pipeline
did — which module called the LLM, how often, at what cost, from which
cache tier.  This package is that substrate:

- :mod:`repro.obs.trace` — deterministic hierarchical spans
  (``run > phase > module > chunk > llm_call``) on the virtual clock,
  identical at any worker count;
- :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms that every subsystem publishes into;
- :mod:`repro.obs.profile` — the per-module run profiler attached to
  ``RunReport.profile``, whose totals are the run's bill (``RunReport.cost``).

Everything hangs off one :class:`Observability` hub::

    obs = Observability()
    system = LinguaManga(obs=obs)
    report = run_lingua_manga_er(system, dataset)
    print(report.profile.to_table())
    print(len(obs.tracer.roots), "traced runs")
    print(obs.metrics.to_text())

Observability is **off by default**, and ``obs=None`` is the one way to
turn it off: a system without an ``obs=`` makes the exact same provider
calls, writes the exact same ledger, and pays no tracing overhead — every
instrumentation point checks ``obs is None`` and does nothing.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TOKEN_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import ProfileRow, RunProfile, profile_records
from repro.obs.progress import progress_events
from repro.obs.trace import Span, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_TOKEN_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "RunProfile",
    "ProfileRow",
    "profile_records",
    "progress_events",
]


class Observability:
    """One tracer + one metrics registry, shared by a whole system.

    Pass to :class:`~repro.core.runtime.system.LinguaManga` (or
    :meth:`LLMService.attach_obs`) to instrument every layer at once.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
