"""Job model for the multi-tenant curation service.

A job is one curation run: a task (a named demo application or an inline
DSL program), a **dataset reference** (a seeded generator spec — datasets
are never uploaded, they are regenerated deterministically from the ref),
and options (worker count, chunk size, task-specific flags).  Everything
about a job is canonical JSON with no wall-clock timestamps, so job
payloads are byte-stable across runs, restarts and worker counts — the
golden API suite pins them.

The task registry maps task names onto the demo-app runners from
:mod:`repro.tasks`; every runner already accepts ``workers`` /
``checkpoint_path`` / ``resume`` / ``cancel``, which is the entire
contract the job queue needs.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "TASKS",
    "JobSpec",
    "JobError",
    "resolve_dataset",
    "run_task",
    "result_payload",
    "canonical_json",
]

#: Every status a job can report.  ``resumable`` means the server died (or
#: the job was cancelled) while a checkpoint journal existed: a restarted
#: server requeues the job and the checkpoint machinery replays the
#: committed prefix byte-identically.
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
        resolve_dataset(self.task, self.dataset, probe=True)

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


# -- dataset references -----------------------------------------------------------


def _int(ref: dict, key: str, default: int) -> int:
    try:
        return int(ref.get(key, default))
    except (TypeError, ValueError):
        raise JobError(f"dataset field {key!r} must be an integer") from None


def resolve_dataset(task: str, ref: dict, probe: bool = False) -> Any:
    """Materialise a dataset reference for ``task``.

    ``probe=True`` only validates the ref without generating anything
    (submission-time validation must stay cheap).  Generation is seeded and
    deterministic: the same ref always yields the same records, which is
    what makes a job re-runnable from its ledger entry alone.
    """
    if task == "er":
        name = str(ref.get("name", "beer"))
        from repro.datasets.entity_resolution import ER_DATASET_NAMES

        if name not in ER_DATASET_NAMES:
            raise JobError(
                f"unknown ER dataset {name!r}; have {sorted(ER_DATASET_NAMES)}"
            )
        seed = _int(ref, "seed", 7)
        n_entities = ref.get("n_entities")
        if probe:
            return None
        from repro.datasets.entity_resolution import generate_er_dataset

        return generate_er_dataset(
            name,
            seed=seed,
            n_entities=int(n_entities) if n_entities is not None else None,
        )
    if task == "names":
        seed = _int(ref, "seed", 3)
        n_documents = _int(ref, "n_documents", 80)
        if n_documents < 1:
            raise JobError("n_documents must be positive")
        if probe:
            return None
        from repro.datasets.names import generate_name_dataset

        return generate_name_dataset(seed=seed, n_documents=n_documents).documents
    if task == "imputation":
        seed = _int(ref, "seed", 11)
        n_train = _int(ref, "n_train", 60)
        n_test = _int(ref, "n_test", 120)
        if n_test < 1:
            raise JobError("n_test must be positive")
        if probe:
            return None
        from repro.datasets.imputation import generate_buy_dataset

        return generate_buy_dataset(seed=seed, n_train=n_train, n_test=n_test).test
    if task == "dsl":
        inputs = ref.get("inputs", {})
        if not isinstance(inputs, dict):
            raise JobError("dsl dataset ref must carry an 'inputs' object")
        return None if probe else dict(inputs)
    raise JobError(f"unknown task {task!r}; have {sorted(TASKS)}")


# -- task execution ---------------------------------------------------------------


def _run_er(system, data, options: dict, **run_kw) -> Any:
    from repro.tasks.entity_resolution import run_lingua_manga_er

    return run_lingua_manga_er(
        system,
        data,
        n_examples=int(options.get("n_examples", 4)),
        **run_kw,
    )


def _run_names(system, data, options: dict, **run_kw) -> Any:
    from repro.tasks.name_extraction import run_name_extraction

    return run_name_extraction(
        system,
        data,
        multilingual=bool(options.get("multilingual", True)),
        **run_kw,
    )


def _run_imputation(system, data, options: dict, **run_kw) -> Any:
    from repro.tasks.imputation import run_llm_imputation

    return run_llm_imputation(system, data, **run_kw)


def _run_dsl(system, data, options: dict, **run_kw) -> Any:
    pipeline = system.parse(options.get("program", ""))
    return system.run(pipeline, inputs=data or {}, **run_kw)


#: task name -> runner(system, dataset, options, **run_kw) -> result object.
TASKS: dict[str, Callable[..., Any]] = {
    "er": _run_er,
    "names": _run_names,
    "imputation": _run_imputation,
    "dsl": _run_dsl,
}


def run_task(
    spec: JobSpec,
    system,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = True,
    cancel: Any = None,
) -> Any:
    """Execute ``spec`` on ``system``; returns the task's result object."""
    data = resolve_dataset(spec.task, spec.dataset)
    options = dict(spec.options)
    if spec.task == "dsl":
        options["program"] = spec.program
    return TASKS[spec.task](
        system,
        data,
        options,
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        cancel=cancel,
    )


def result_payload(spec: JobSpec, result: Any) -> dict:
    """The canonical result summary a terminal job reports.

    Floats are rounded the way ``RunReport.canonical_dict`` rounds cost, so
    payloads are platform-stable; the full run report travels separately as
    its canonical JSON digest (and on-disk copy) rather than inline.
    """
    report = getattr(result, "report", None)
    if report is None and type(result).__name__ == "RunReport":
        report, result = result, None
    payload: dict[str, Any] = {"task": spec.task}
    if result is not None:
        for metric in (
            "f1",
            "precision",
            "recall",
            "accuracy",
            "llm_calls",
            "cost",
            "cached_calls",
            "distilled_calls",
        ):
            value = getattr(result, metric, None)
            if value is None:
                continue
            payload[metric] = round(value, 10) if isinstance(value, float) else value
    if report is not None:
        canonical = report.canonical_json()
        payload["report_digest"] = hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()[:16]
        payload["quarantined"] = len(report.quarantine)
    return payload
