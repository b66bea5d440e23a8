"""Job model for the multi-tenant curation service.

A job is one curation run: a task (a named demo application or an inline
DSL program), a **dataset reference** (a seeded generator spec — datasets
are never uploaded, they are regenerated deterministically from the ref),
and options (worker count and the task's own flags).  Everything
about a job is canonical JSON with no wall-clock timestamps, so job
payloads are byte-stable across runs, restarts and worker counts — the
golden API suite pins them.

``TASKS`` is the task table of :mod:`repro.tasks.table`, so every
registered row is servable: a job's ``options`` are ``workers`` plus the
row's own keyword options (checked at submit), its dataset ref is the
row's resolver input, and :func:`run_task` is :func:`repro.tasks.table.run`
with the queue's checkpoint path — an API job *is* a direct run.  ``dsl``
is the row whose pipeline is the spec's ``program``.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.tasks.table import TASKS, TaskResult, run

__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "TASKS",
    "JobSpec",
    "JobError",
    "resolve_dataset",
    "ResolvedDatasets",
    "run_task",
    "result_payload",
    "canonical_json",
]

#: Every status a job can report.  ``resumable`` means the server died
#: while the job ran: a restarted server requeues it and the checkpoint
#: machinery replays the committed prefix byte-identically.  Nothing writes
#: ``cancelled`` any more; a ledger an older build wrote may hold it, and
#: such a job stays terminal.
JOB_STATUSES = (
    "queued",
    "running",
    "succeeded",
    "failed",
    "cancelled",
    "resumable",
)

#: Statuses a job never leaves (within one server lifetime).
TERMINAL_STATUSES = ("succeeded", "failed", "cancelled")

_TENANT_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

#: Resolved datasets one :class:`ResolvedDatasets` holds; the least
#: recently used goes first.  A ref is regenerated on a miss, so this
#: bounds memory, not correctness.
DATASET_SLOTS = 8


class JobError(ValueError):
    """A job spec the service refuses (unknown task, bad dataset ref...)."""


def canonical_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(
        payload,
        ensure_ascii=False,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


@dataclass(frozen=True)
class JobSpec:
    """What a tenant asked the service to run (immutable, canonical)."""

    tenant: str
    task: str
    dataset: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    program: str = ""  # DSL text, for task == "dsl"

    def validate(self) -> None:
        if not _TENANT_RE.match(self.tenant or ""):
            raise JobError(f"invalid tenant name {self.tenant!r}")
        if self.task not in TASKS:
            raise JobError(
                f"unknown task {self.task!r}; have {sorted(TASKS)}"
            )
        if self.task == "dsl" and not self.program.strip():
            raise JobError("task 'dsl' requires a non-empty program")
        if not isinstance(self.dataset, dict):
            raise JobError("dataset must be an object")
        if not isinstance(self.options, dict):
            raise JobError("options must be an object")
        workers = self.options.get("workers", 1)
        if type(workers) is not int or workers < 1:
            raise JobError(f"option 'workers' must be an integer >= 1, got {workers!r}")
        try:
            TASKS[self.task].settings(self.task_options())
        except ValueError as error:
            raise JobError(str(error)) from None
        resolve_dataset(self.task, self.dataset, probe=True)

    def task_options(self) -> dict:
        """The row's keyword options: ``options`` without ``workers``, plus
        the program when there is one."""
        options = {key: value for key, value in self.options.items() if key != "workers"}
        if self.program:
            options["program"] = self.program
        return options

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "task": self.task,
            "dataset": dict(self.dataset),
            "options": dict(self.options),
            "program": self.program,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobError("job spec must be a JSON object")
        return cls(
            tenant=str(payload.get("tenant", "")),
            task=str(payload.get("task", "")),
            dataset=dict(payload.get("dataset") or {}),
            options=dict(payload.get("options") or {}),
            program=str(payload.get("program", "")),
        )

    def digest(self) -> str:
        """Stable identity digest (chaos tests seed fault injectors on it)."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()[:16]


# -- dataset references and execution: one row of the task table each -----------


def resolve_dataset(task: str, ref: dict, probe: bool = False) -> Any:
    """Materialise a dataset reference for ``task`` (its row's resolver).

    ``probe=True`` only validates the ref without generating anything
    (submission-time validation must stay cheap).  Generation is seeded and
    deterministic: the same ref always yields the same records, which is
    what makes a job re-runnable from its ledger entry alone.
    """
    row = TASKS.get(task)
    if row is None:
        raise JobError(f"unknown task {task!r}; have {sorted(TASKS)}")
    try:
        return row.resolve(ref, probe)
    except ValueError as error:
        raise JobError(str(error)) from None


class _Slot:
    """One resolved dataset, and the lock its one resolver holds."""

    __slots__ = ("lock", "data", "resolved")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.data: Any = None
        self.resolved = False


class ResolvedDatasets:
    """Datasets resolved once per ``(task, canonical ref)``, least recently
    used evicted past :data:`DATASET_SLOTS`.

    Generation is deterministic, so every job on a ref can share one copy:
    jobs read it and never write it (no task row mutates its data).  A
    thread that misses resolves under the ref's own lock, so two threads
    never generate the same ref at once, and a second job on it waits for
    the first one's copy instead of making its own.
    """

    def __init__(self) -> None:
        self._slots: OrderedDict[tuple[str, str], _Slot] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, task: str, ref: dict) -> Any:
        """The data ``ref`` resolves to for ``task`` (:func:`resolve_dataset`)."""
        key = (task, canonical_json(ref))
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = self._slots[key] = _Slot()
                if len(self._slots) > DATASET_SLOTS:
                    self._slots.popitem(last=False)
            else:
                self._slots.move_to_end(key)
        with slot.lock:
            if not slot.resolved:
                slot.data = resolve_dataset(task, ref)
                slot.resolved = True
            return slot.data


def run_task(
    spec: JobSpec,
    system,
    workers: int | None = None,
    checkpoint: Any = None,
    dataset: Any = None,
) -> TaskResult:
    """Execute ``spec`` on ``system``: its row, on its dataset.

    ``dataset`` is the spec's resolved data when the caller holds it (the
    queue's :class:`ResolvedDatasets`); otherwise it is resolved here.
    """
    return run(
        spec.task,
        system,
        resolve_dataset(spec.task, spec.dataset) if dataset is None else dataset,
        workers=workers,
        checkpoint=checkpoint,
        **spec.task_options(),
    )


def result_payload(spec: JobSpec, result: TaskResult) -> dict:
    """The canonical result summary a terminal job reports.

    Floats are rounded the way ``RunReport.canonical_dict`` rounds cost, so
    payloads are platform-stable; the full run report travels separately as
    its canonical JSON digest (and on-disk copy) rather than inline.  A
    dict-valued score (names' per-language F1) stays off the payload.
    """
    report = result.report
    return {
        "task": spec.task,
        **{
            name: round(value, 10)
            for name, value in result.scores.items()
            if isinstance(value, float)
        },
        "llm_calls": result.llm_calls,
        "cost": round(result.cost, 10),
        "cached_calls": result.cached_calls,
        "distilled_calls": result.distilled_calls,
        "report_digest": hashlib.sha256(
            report.canonical_json().encode("utf-8")
        ).hexdigest()[:16],
        "quarantined": len(report.quarantine),
    }
