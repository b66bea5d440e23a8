"""Deterministic structured tracing: hierarchical spans over the virtual clock.

A trace is a tree of :class:`Span` objects describing what one run did:

    run > phase > module > {chunk, llm_call}

- ``run`` — one plan execution (:meth:`PhysicalPlan.execute`);
- ``phase`` — one operator evaluation, in plan order;
- ``module`` — the bound module's work inside its phase;
- ``chunk`` — one record chunk under the parallel scheduler;
- ``llm_call`` — one ledger record, derived from the **canonicalized**
  ledger slice of the operator.

Determinism rules (the golden-trace suite pins these):

1. **Logical timestamps only.**  Span ``start``/``end`` come from the
   resilience layer's :class:`~repro.resilience.clock.VirtualClock`, never
   from wall time, so two runs of the same plan produce identical times.
2. **Canonical call attribution.**  ``llm_call`` spans are not recorded as
   calls happen — request coalescing makes the winning thread racy — but
   derived from the canonicalized ledger slice after the operator merges,
   and attached to the *module* span.  Their order and provenance are then
   deterministic by the scheduler's existing ledger contract.
3. **Chunk spans carry structure, not latency.**  Which chunk pays a
   coalesced provider call's latency is racy, so chunk spans record the
   operator-entry timestamp and deterministic counts (records, outputs,
   quarantined, degraded) rather than per-chunk durations.

With these rules a trace collected at ``workers=1`` is identical to one
collected at ``workers=8``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
]


@dataclass
class Span:
    """One node of a trace tree."""

    name: str
    kind: str
    start: float = 0.0
    end: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)
    children: "list[Span]" = field(default_factory=list)

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns self for chaining."""
        self.attributes[key] = value
        return self

    @property
    def duration(self) -> float:
        """Logical duration in virtual seconds."""
        return self.end - self.start


class Tracer:
    """Thread-safe span collector with a coordinator-thread span stack.

    The plan executor (always a single coordinating thread) opens
    ``run``/``phase``/``module`` spans via :meth:`span`; the scheduler and
    the executor append leaf spans under the innermost open span via
    :meth:`add_span`.  Worker threads never push onto the stack — their
    work is attributed deterministically after the chunk-order merge, which
    is what keeps traces byte-identical at any worker count.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._lock = threading.RLock()

    # -- recording ---------------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, kind: str, clock: Any = None, **attributes: Any
    ) -> Iterator[Span]:
        """Open a span; ``start``/``end`` are read from ``clock.now``.

        ``clock`` is any object with a ``now`` attribute (a
        :class:`~repro.resilience.clock.VirtualClock`); without one the
        span keeps logical time zero.
        """
        now = float(clock.now) if clock is not None else 0.0
        span = Span(name=name, kind=kind, start=now, end=now, attributes=attributes)
        with self._lock:
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)
            self._stack.append(span)
        try:
            yield span
        finally:
            span.end = float(clock.now) if clock is not None else span.start
            with self._lock:
                if self._stack and self._stack[-1] is span:
                    self._stack.pop()

    def add_span(
        self,
        name: str,
        kind: str,
        start: float = 0.0,
        end: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Append a closed leaf span under the innermost open span."""
        span = Span(
            name=name,
            kind=kind,
            start=start,
            end=start if end is None else end,
            attributes=attributes,
        )
        with self._lock:
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)
        return span
