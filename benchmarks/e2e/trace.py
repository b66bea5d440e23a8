"""Span tracing from outside the program: timing wrappers and self times.

The traced run installs wrappers around public callables of each layer
(:data:`TARGETS`); nothing under ``src/`` changes.  A span is
``(name, start, end, parent, thread, note)``; spans live in memory and are
written after the run.  The layer of a span is the part of its name before
the first dot.

Parents follow the call stack of the thread that opened the span.  The
first span of a worker thread has no stack, so ``Thread.start`` is wrapped
to stamp a new thread with the starter's innermost open span — but only
when that span is a *fan-out* span, one that blocks until its threads are
done (``Scheduler.run_operator``, the root).  Anything else parents to the
root, so a child never outlives its parent.

A span's **self time** is its duration minus the union of its children's
intervals.  Children on several threads can overlap; the doubly covered
time is summed as ``overlap``.  With the root spanning the timed interval::

    sum(self time of every non-root span) + self time of root - overlap == wall

which :func:`summarize` checks (``imbalance``) so that a span escaping its
parent, or a layer dropped from the aggregation, shows up as a number.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "TARGETS", "summarize", "layer_of"]

ROOT = 0


class Tracer:
    """In-memory span recorder; the first span opened is the root."""

    def __init__(self) -> None:
        # [name, start, end, parent, thread, note]
        self.spans: list[list] = []
        self._fanout: set[int] = set()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            inherited = getattr(threading.current_thread(), "_e2e_parent", None)
            if inherited is not None:
                stack.append(inherited)
        return stack

    def _open(self, name: str, fanout: bool) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else ROOT
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                [name, 0.0, 0.0, parent, threading.get_ident(), None]
            )
            if fanout:
                self._fanout.add(span_id)
        stack.append(span_id)
        self.spans[span_id][1] = time.perf_counter()
        return span_id

    def _close(self, span_id: int, note: Any = None) -> None:
        span = self.spans[span_id]
        span[2] = time.perf_counter()
        span[5] = note
        self._stack().pop()

    @contextmanager
    def span(self, name: str, fanout: bool = False) -> Iterator[int]:
        """Open a span around a block of the benchmark's own code."""
        span_id = self._open(name, fanout)
        try:
            yield span_id
        finally:
            self._close(span_id)

    def traced(
        self,
        function: Callable,
        name: "str | Callable[..., str]",
        fanout: bool = False,
        note: Callable[..., Any] | None = None,
    ) -> Callable:
        """``function`` wrapped in a span.

        ``name`` may be a callable of the call's arguments (one journal
        class serves three layers; the file name says which).  ``note`` maps
        ``(result, *args, **kwargs)`` to a small value stored on the span.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id = self._open(
                name if isinstance(name, str) else name(*args, **kwargs), fanout
            )
            noted = None
            try:
                result = function(*args, **kwargs)
                if note is not None:
                    noted = note(result, *args, **kwargs)
                return result
            finally:
                self._close(span_id, noted)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, targets: "list[dict] | None" = None) -> None:
        """Patch every target in place (and ``Thread.start``); see :meth:`uninstall`."""
        import importlib

        for target in TARGETS if targets is None else targets:
            owner: Any = importlib.import_module(target["module"])
            if target.get("cls"):
                owner = getattr(owner, target["cls"])
            original = owner.__dict__[target["attr"]]
            self._restore.append((owner, target["attr"], original))
            setattr(
                owner,
                target["attr"],
                self.traced(
                    original,
                    target["name"],
                    fanout=target.get("fanout", False),
                    note=target.get("note"),
                ),
            )
        original_start = threading.Thread.start
        tracer = self

        def start(thread):
            stack = getattr(tracer._tls, "stack", None)
            if stack and stack[-1] in tracer._fanout:
                thread._e2e_parent = stack[-1]
            return original_start(thread)

        self._restore.append((threading.Thread, "start", original_start))
        threading.Thread.start = start

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def dump(self, path: str | Path, run_id: str) -> None:
        """One JSON line per span: name, start, end, parent, thread, run id."""
        origin = self.spans[ROOT][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (name, start, end, parent, thread, note) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                            "parent": None if span_id == ROOT else parent,
                            "thread": thread,
                            "run": run_id,
                            "note": note,
                        }
                    )
                    + "\n"
                )


# -- where the wrappers go -----------------------------------------------------------

#: One journal class serves three layers; the file name says which.
_JOURNAL_SPAN = {
    "checkpoint.jsonl": "checkpoint.",
    "ledger.jsonl": "workqueue.ledger_",
    "jobs.jsonl": "serve.ledger_",
}


def _journal_span(verb: str) -> Callable[..., str]:
    def name(journal, *args, **kwargs) -> str:
        return _JOURNAL_SPAN.get(journal.path.name, "checkpoint.") + verb

    return name


def _t(module: str, cls: str, attr: str, name, **extra) -> dict:
    return {"module": module, "cls": cls, "attr": attr, "name": name, **extra}


#: Public callables wrapped in the traced run, one row per span name.
TARGETS: list[dict] = [
    _t("repro.datasets.streaming", "StreamingERCorpus", "pair", "datasets.source"),
    _t("repro.datasets.curation", "CurationCorpus", "doc", "datasets.source"),
    _t("repro.serve.jobs", "", "resolve_dataset", "datasets.source"),
    _t("repro.core.templates.library", "Template", "instantiate", "compiler.instantiate"),
    _t("repro.core.compiler.compiler", "LinguaMangaCompiler", "compile", "compiler.compile"),
    _t("repro.core.compiler.plan", "PhysicalPlan", "execute", "plan.execute"),
    _t("repro.core.runtime.scheduler", "Scheduler", "run_operator",
       "scheduler.run_operator", fanout=True),
    _t("repro.core.runtime.workqueue", "StreamingExecutor", "execute", "workqueue.execute"),
    _t("repro.core.runtime.workqueue", "ShardLedger", "record_shard",
       "workqueue.record_shard"),
    _t("repro.core.modules.base", "Module", "run", "modules.run"),
    _t("repro.core.modules.mapping", "MapModule", "apply_chunk", "modules.apply_chunk"),
    _t("repro.core.modules.llm_module", "LLMModule", "build_prompt", "modules.render",
       note=lambda prompt, *a, **k: len(prompt.encode("utf-8"))),
    # Both bindings of the scan: the in-pipeline kernel's and the runner's.
    _t("repro.core.compiler.curation", "", "dedup_candidate_pairs", "curation.candidate_scan"),
    _t("repro.tasks.curation", "", "dedup_candidate_pairs", "curation.candidate_scan"),
    _t("repro.llm.service", "LLMService", "complete", "service.complete"),
    _t("repro.llm.service", "LLMService", "prime", "service.prime",
       note=lambda served, *a, **k: served),
    _t("repro.llm.service", "LLMService", "complete_many", "service.complete_many"),
    _t("repro.llm.cache", "PromptCache", "__init__", "cache.open"),
    _t("repro.llm.cache", "PromptCache", "get", "cache.get"),
    _t("repro.llm.cache", "PromptCache", "put", "cache.put"),
    _t("repro.llm.cache", "PromptCache", "peek", "cache.peek"),
    _t("repro.llm.cache", "PromptCache", "get_near", "cache.get_near"),
    _t("repro.llm.cache", "PromptCache", "has_any", "cache.has_any"),
    _t("repro.llm.cache", "PromptCache", "seal", "cache.seal"),
    _t("repro.llm.cache", "CacheJournal", "load", "cache.journal_load"),
    _t("repro.llm.cache", "CacheJournal", "append", "cache.journal_append"),
    _t("repro.core.runtime.checkpoint", "CheckpointJournal", "append",
       _journal_span("append")),
    _t("repro.core.runtime.checkpoint", "CheckpointJournal", "close",
       _journal_span("close")),
    _t("repro.core.compiler.plan", "RunReport", "canonical_json", "report.canonical",
       note=lambda text, *a, **k: len(text.encode("utf-8"))),
    _t("repro.serve.queue", "JobQueue", "submit", "serve.submit",
       note=lambda job, *a, **k: job.job_id),
    _t("repro.serve.store", "JobStore", "transition", "serve.transition",
       note=lambda job, store, job_id, status, *a, **k: f"{job_id}:{status}"),
    _t("repro.serve.tenancy", "TenantRegistry", "service_for_job",
       "serve.service_for_job"),
    _t("repro.serve.tenancy", "TenantRegistry", "job_started", "serve.job_started"),
    # ``queue`` binds the name at import, so the wrapper goes on that binding.
    _t("repro.serve.queue", "", "run_task", "serve.run_task"),
    # The benchmark's own provider: its sleeps are the ``provider`` layer.
    _t("benchmarks.e2e.replay", "ReplayProvider", "_round_trip", "provider.round_trip"),
]


# -- analysis ------------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        covered += end - max(start, edge)
        edge = end
    return covered


def summarize(spans: list[list]) -> dict:
    """Self time per layer, inclusive time and count per span name.

    Returns ``wall``, ``unattributed`` (root self time), ``overlap``,
    ``imbalance`` (how far the identity in the module docstring is off, as a
    share of wall), and the ``self`` / ``total`` / ``count`` / ``notes``
    tables keyed by layer or span name.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, (_, start, end, parent, _, _) in enumerate(spans):
        if span_id != ROOT:
            children.setdefault(parent, []).append((start, end))
    self_by_layer: dict[str, float] = {}
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    notes: dict[str, list] = {}
    overlap = 0.0
    unattributed = 0.0
    for span_id, (name, start, end, _, _, note) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        covered = _union(clipped)
        overlap += sum(e - s for s, e in clipped) - covered
        own = (end - start) - covered
        if span_id == ROOT:
            unattributed = own
            continue
        self_by_layer[layer_of(name)] = self_by_layer.get(layer_of(name), 0.0) + own
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if note is not None:
            notes.setdefault(name, []).append(note)
    wall = spans[ROOT][2] - spans[ROOT][1]
    attributed = sum(self_by_layer.values())
    return {
        "wall": wall,
        "unattributed": unattributed,
        "overlap": overlap,
        "imbalance": abs(attributed + unattributed - overlap - wall) / wall,
        "self": self_by_layer,
        "total": total,
        "count": count,
        "notes": notes,
    }
