"""Progress events: a flat, deterministic job feed derived from trace spans.

The serving layer (:mod:`repro.serve`) reports job progress through
``GET /jobs/<id>``, and what it reports is *derived*, never collected: a
run's :class:`~repro.obs.trace.Tracer` span tree is folded into a flat
list of per-phase events after the fact.  That inherits every determinism
rule the golden-trace suite already pins — logical timestamps from the
virtual clock, canonical call attribution, chunk spans without racy
latency — so the progress feed for a job is byte-identical at any worker
count and across resumes, which is what lets the API golden tests pin it.

Events are plain dicts with monotonically increasing ``seq`` numbers and
**no wall-clock timestamps**: ``at``/``elapsed`` are virtual-clock values.
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import Span

__all__ = ["progress_events"]

_AT_DIGITS = 9  # matches trace export rounding (platform-stable goldens)


def _round(value: float) -> float:
    return round(float(value), _AT_DIGITS)


def _phase_event(phase: Span) -> dict[str, Any]:
    llm_calls = 0
    cached = 0
    cost = 0.0
    chunks = 0
    quarantined = 0
    degraded = 0
    module_types: list[str] = []
    stack = list(phase.children)
    while stack:
        span = stack.pop()
        stack.extend(span.children)
        if span.kind == "llm_call":
            llm_calls += 1
            if span.attributes.get("cached"):
                cached += 1
            cost += float(span.attributes.get("cost", 0.0))
        elif span.kind in ("chunk", "shard"):
            chunks += 1
            quarantined += int(span.attributes.get("quarantined", 0))
            degraded += int(span.attributes.get("degraded", 0))
        elif span.kind == "module":
            module_types.append(str(span.attributes.get("module_type", "")))
            quarantined += int(span.attributes.get("quarantined", 0))
            degraded += int(span.attributes.get("degraded", 0))
    return {
        "event": "phase",
        "name": phase.name,
        "kind": str(phase.attributes.get("operator_kind", "")),
        "module": module_types[0] if module_types else "",
        "at": _round(phase.end),
        "elapsed": _round(phase.duration),
        "llm_calls": llm_calls,
        "cached_calls": cached,
        "cost": round(cost, 10),
        "chunks": chunks,
        "quarantined": quarantined,
        "degraded": degraded,
    }


def progress_events(roots: "list[Span] | Span") -> list[dict[str, Any]]:
    """Fold span trees into a flat progress feed.

    One ``run:start`` / ``run:end`` pair per ``run`` root, one ``phase``
    event per operator (chunk/module/llm_call details aggregated into
    counts), and one ``event`` entry per point-in-time span (torn tails,
    resume boundaries).  ``seq`` is a plain 0-based counter over the
    emitted list — the only ordering a polling client needs.
    """
    if isinstance(roots, Span):
        roots = [roots]
    events: list[dict[str, Any]] = []

    def emit(payload: dict[str, Any]) -> None:
        payload["seq"] = len(events)
        events.append(payload)

    for root in roots:
        if root.kind != "run":
            continue
        emit(
            {
                "event": "run:start",
                "name": root.name,
                "at": _round(root.start),
            }
        )
        phases = 0
        for child in root.children:
            if child.kind == "phase":
                phases += 1
                emit(_phase_event(child))
            elif child.kind == "event":
                emit(
                    {
                        "event": f"note:{child.name}",
                        "at": _round(child.start),
                        **{
                            key: value
                            for key, value in sorted(child.attributes.items())
                        },
                    }
                )
        emit(
            {
                "event": "run:end",
                "name": root.name,
                "at": _round(root.end),
                "elapsed": _round(root.duration),
                "phases": phases,
            }
        )
    return events
