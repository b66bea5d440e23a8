"""The metrics registry: counters, gauges and fixed-bucket histograms.

Every subsystem with something to report — the LLM service, the prompt
cache, the distillation router, the scheduler, the modules — publishes
into one :class:`MetricsRegistry` owned by the
:class:`~repro.obs.Observability` hub.  Design constraints:

- **thread safe** — workers publish concurrently; one registry lock guards
  every mutation;
- **merge is order-independent** — counters and histogram buckets are sums
  (commutative), gauges merge by maximum, so folding per-worker registries
  together yields the same result in any order (property-tested);
- **fixed bucket boundaries** — histograms declare their boundaries at
  first use and reject conflicting redeclarations, so bucket counts are
  comparable across runs and mergeable across workers.

Metric values that count racy events (e.g. ``llm.coalesced``) are real
observations about a particular execution and are *not* covered by the
determinism contract; everything derived from the canonical ledger is.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_TOKEN_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Seconds buckets for virtual-latency distributions.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)
#: Token-count buckets for prompt/completion size distributions.
DEFAULT_TOKEN_BUCKETS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
#: Record-count buckets for chunk/batch size distributions.
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Counter:
    """A monotonically increasing sum (ints or floats)."""

    kind = "counter"

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value; merges by maximum (order-independent)."""

    kind = "gauge"

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Observation distribution over fixed, sorted bucket boundaries.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    counts overflow observations greater than every boundary.  Bucket
    counts always sum to the observation count (property-tested).
    """

    kind = "histogram"

    def __init__(self, name: str, bounds: Iterable[float], lock: threading.RLock):
        self.name = name
        self._lock = lock
        self.bounds = tuple(float(bound) for bound in bounds)
        if not self.bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"histogram {self.name!r} bounds must be strictly increasing"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += 1
            self.sum += value

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class _NullMetric:
    """Shared sink handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metrics with get-or-create accessors and commutative merging."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.RLock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is not None and metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, requested as {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        with self._lock:
            metric = self._get(name, "counter")
            if metric is None:
                metric = self._metrics[name] = Counter(name, self._lock)
            return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        with self._lock:
            metric = self._get(name, "gauge")
            if metric is None:
                metric = self._metrics[name] = Gauge(name, self._lock)
            return metric

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get or create a histogram; redeclaring with new bounds raises."""
        if not self.enabled:
            return _NULL_METRIC  # type: ignore[return-value]
        bounds = tuple(float(bound) for bound in bounds)
        with self._lock:
            metric = self._get(name, "histogram")
            if metric is None:
                metric = self._metrics[name] = Histogram(name, bounds, self._lock)
            elif metric.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} already declared with bounds "
                    f"{metric.bounds}, got {bounds}"
                )
            return metric

    def value(self, name: str, default: float = 0) -> float:
        """Convenience: a counter/gauge's current value (0 when absent)."""
        with self._lock:
            metric = self._metrics.get(name)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value

    def as_dict(self) -> dict[str, dict]:
        """Every metric, sorted by name, as plain dicts."""
        with self._lock:
            return {
                name: self._metrics[name].as_dict()
                for name in sorted(self._metrics)
            }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (commutative per metric).

        Counters and histogram buckets add; gauges take the maximum.
        Conflicting metric kinds or histogram bounds raise.
        """
        with other._lock:
            snapshot = dict(other._metrics)
        for name, metric in snapshot.items():
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                mine = self.gauge(name)
                with self._lock:
                    mine.value = max(mine.value, metric.value)
            else:
                mine = self.histogram(name, metric.bounds)
                with self._lock:
                    for index, count in enumerate(metric.counts):
                        mine.counts[index] += count
                    mine.total += metric.total
                    mine.sum += metric.sum

    def to_text(self) -> str:
        """Readable dump, one metric per line."""
        lines = []
        for name, payload in self.as_dict().items():
            if payload["kind"] == "histogram":
                lines.append(
                    f"{name}: histogram total={payload['total']} "
                    f"sum={payload['sum']:.6g} counts={payload['counts']}"
                )
            else:
                lines.append(f"{name}: {payload['kind']} value={payload['value']:g}")
        return "\n".join(lines)
