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

With these rules a trace exported at ``workers=1`` is byte-identical to
one exported at ``workers=8``.  Traces round-trip through JSONL (one span
per line, parent-linked by deterministic path ids).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "SPAN_KINDS",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "walk_spans",
    "span_tree_problems",
    "provenance_counts",
]

#: The span kinds, outermost first.  ``shard`` is the streaming executor's
#: analogue of ``chunk`` (one streamed, ledger-journalled shard, pinned to the
#: operator-entry timestamp); ``event`` marks point-in-time occurrences
#: such as a journal torn-tail truncation.
SPAN_KINDS = ("run", "phase", "module", "chunk", "shard", "llm_call", "event")

#: Float attribute names normalized on export (they are deterministic, but
#: rounding keeps golden fixtures readable and platform-stable).
_ROUNDED_FIELDS = {"cost": 10, "latency_seconds": 9, "start": 9, "end": 9}


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

    def to_dict(self) -> dict[str, Any]:
        """This span alone (no children) as a plain dict."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, _ROUNDED_FIELDS["start"]),
            "end": round(self.end, _ROUNDED_FIELDS["end"]),
            "attributes": {
                key: (
                    round(value, _ROUNDED_FIELDS[key])
                    if key in _ROUNDED_FIELDS and isinstance(value, float)
                    else value
                )
                for key, value in sorted(self.attributes.items())
            },
        }


class _NullSpan:
    """The no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    @property
    def attributes(self) -> dict[str, Any]:
        return {}


NULL_SPAN = _NullSpan()


def walk_spans(roots: "list[Span] | Span") -> Iterator[tuple[Span, Span | None]]:
    """Yield ``(span, parent)`` pairs depth-first over one or more trees."""
    stack: list[tuple[Span, Span | None]]
    if isinstance(roots, Span):
        stack = [(roots, None)]
    else:
        stack = [(root, None) for root in reversed(roots)]
    while stack:
        span, parent = stack.pop()
        yield span, parent
        for child in reversed(span.children):
            stack.append((child, span))


def span_tree_problems(root: Span) -> list[str]:
    """Well-formedness violations of one span tree (empty list = valid).

    Checks the invariants the property suite pins: every interval is
    ordered (``end >= start``), every child's interval nests inside its
    parent's, and every kind is known.
    """
    problems: list[str] = []
    for span, parent in walk_spans(root):
        if span.kind not in SPAN_KINDS:
            problems.append(f"{span.name}: unknown kind {span.kind!r}")
        if span.end < span.start:
            problems.append(
                f"{span.name}: end {span.end} precedes start {span.start}"
            )
        if parent is not None and (
            span.start < parent.start or span.end > parent.end
        ):
            problems.append(
                f"{span.name}: interval [{span.start}, {span.end}] escapes "
                f"parent {parent.name} [{parent.start}, {parent.end}]"
            )
    return problems


def provenance_counts(roots: "list[Span] | Span") -> dict[str, int]:
    """Count ``llm_call`` spans per provenance attribute (golden assertions)."""
    counts: dict[str, int] = {}
    for span, _ in walk_spans(roots):
        if span.kind == "llm_call":
            provenance = str(span.attributes.get("provenance", "unknown"))
            counts[provenance] = counts.get(provenance, 0) + 1
    return dict(sorted(counts.items()))


class Tracer:
    """Thread-safe span collector with a coordinator-thread span stack.

    The plan executor (always a single coordinating thread) opens
    ``run``/``phase``/``module`` spans via :meth:`span`; the scheduler and
    the executor append leaf spans under the innermost open span via
    :meth:`add_span`.  Worker threads never push onto the stack — their
    work is attributed deterministically after the chunk-order merge, which
    is what keeps traces byte-identical at any worker count.

    Disabled tracers (``enabled=False``) hand out a shared null span and
    allocate nothing, so the observability path is zero-cost when off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._lock = threading.RLock()

    # -- recording ---------------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        with self._lock:
            return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self, name: str, kind: str, clock: Any = None, **attributes: Any
    ) -> Iterator[Span | _NullSpan]:
        """Open a span; ``start``/``end`` are read from ``clock.now``.

        ``clock`` is any object with a ``now`` attribute (a
        :class:`~repro.resilience.clock.VirtualClock`); without one the
        span keeps logical time zero.
        """
        if not self.enabled:
            yield NULL_SPAN
            return
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
    ) -> Span | _NullSpan:
        """Append a closed leaf span under the innermost open span."""
        if not self.enabled:
            return NULL_SPAN
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

    def clear(self) -> None:
        """Drop all finished spans (open spans stay on the stack)."""
        with self._lock:
            self.roots = [span for span in self._stack[:1]]
            if not self._stack:
                self.roots = []

    def merge(self, other: "Tracer") -> None:
        """Fold another collector's root spans into this one.

        Order-independent: merged roots are kept sorted by a deterministic
        key, so ``a.merge(b)`` and ``b.merge(a)`` produce identical
        collectors — the property the per-worker merge tests pin.
        """
        with self._lock, other._lock:
            self.roots.extend(other.roots)
            self.roots.sort(key=_merge_key)

    # -- export / import ----------------------------------------------------------

    def to_records(self) -> list[dict[str, Any]]:
        """Flatten all root spans to parent-linked dict records.

        Span ids are deterministic tree paths (``"0"``, ``"0.2"``,
        ``"0.2.1"``), so two identical trees export identical records.
        """
        with self._lock:
            roots = list(self.roots)
        records: list[dict[str, Any]] = []

        def visit(span: Span, span_id: str, parent_id: str | None) -> None:
            record = span.to_dict()
            record["span_id"] = span_id
            record["parent_id"] = parent_id
            records.append(record)
            for index, child in enumerate(span.children):
                visit(child, f"{span_id}.{index}", span_id)

        for index, root in enumerate(roots):
            visit(root, str(index), None)
        return records

    def export_jsonl(self, path: str | Path) -> int:
        """Write one span per line; returns the number of spans written."""
        records = self.to_records()
        text = "".join(
            json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
            for record in records
        )
        Path(path).write_text(text, encoding="utf-8")
        return len(records)

    @staticmethod
    def from_records(records: list[dict[str, Any]]) -> list[Span]:
        """Rebuild span trees from :meth:`to_records` output."""
        by_id: dict[str, Span] = {}
        roots: list[Span] = []
        for record in records:
            span = Span(
                name=str(record["name"]),
                kind=str(record["kind"]),
                start=float(record["start"]),
                end=float(record["end"]),
                attributes=dict(record.get("attributes", {})),
            )
            by_id[str(record["span_id"])] = span
            parent_id = record.get("parent_id")
            if parent_id is None:
                roots.append(span)
            else:
                parent = by_id.get(str(parent_id))
                if parent is None:
                    raise ValueError(
                        f"span {record['span_id']} arrives before its parent "
                        f"{parent_id}"
                    )
                parent.children.append(span)
        return roots

    @staticmethod
    def load_jsonl(path: str | Path) -> list[Span]:
        """Read span trees back from a JSONL export."""
        records = [
            json.loads(line)
            for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        return Tracer.from_records(records)


def _merge_key(span: Span) -> tuple:
    return (
        span.start,
        span.end,
        span.kind,
        span.name,
        json.dumps(span.attributes, sort_keys=True, default=repr),
    )
