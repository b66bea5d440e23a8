"""One task table: every packaged task is a row, and one :func:`run` runs any row.

The paper's demo applications (§4.1–4.3) are each a template instantiated
on a dataset and then scored.  A :class:`Task` row says exactly that much:
how a served job's dataset reference becomes data (``resolve``), which
keyword options it takes and their defaults, how the data becomes a
pipeline plus its inputs (``build``), and — through the :class:`Plan` that
build returns — how the saved output is scored.  Rows live beside their
domain code and :func:`register` themselves on import; :func:`run` is the
only code that turns a row into a run, so the named runners
(``run_lingua_manga_er``, ``run_dedup``, …), the job server
(``repro.serve.jobs``) and the benchmarks share one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.core.dsl.parser import parse_pipeline
from repro.llm.service import usage_delta

__all__ = ["Plan", "Task", "TaskResult", "TASKS", "ref_int", "register", "run"]


class Plan(NamedTuple):
    """What a row's ``build`` hands :func:`run`."""

    pipeline: Any
    inputs: dict
    #: ``score(output) -> (scores, predictions)`` over the saved output
    score: Callable[[list], tuple[dict, list]]


@dataclass(frozen=True)
class Task:
    """One row of the table."""

    name: str
    #: ``resolve(ref, probe) -> data``: a served job's dataset reference;
    #: ``probe=True`` only validates it (raising ``ValueError``)
    resolve: Callable[[dict, bool], Any]
    #: the keyword options ``build`` takes, with their defaults
    options: dict[str, Any]
    #: ``build(data, **options) -> Plan`` for ``system.run``
    build: Callable[..., Plan]
    #: what :attr:`TaskResult.task` reads, when it is not ``name``
    label: str = ""

    def settings(self, given: dict) -> dict:
        """``given`` over the defaults; an unknown or mistyped option raises."""
        for key, value in given.items():
            if key not in self.options:
                raise ValueError(
                    f"task {self.name!r} has no option {key!r}; "
                    f"it takes {sorted(self.options)}"
                )
            expected = type(self.options[key])
            if type(value) is not expected:
                raise ValueError(
                    f"option {key!r} of task {self.name!r} must be "
                    f"{expected.__name__}, got {value!r}"
                )
        return {**self.options, **given}


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task run, scored against the data's ground truth.

    ``scores`` holds what the row measures (``f1``; ``precision`` /
    ``recall`` / ``per_language_f1`` for names; ``accuracy`` for
    imputation), each also readable as an attribute.  ``cached_calls`` /
    ``distilled_calls`` count answers produced without paying the
    provider.
    """

    task: str
    scores: dict
    predictions: list
    llm_calls: int
    cost: float
    cached_calls: int
    distilled_calls: int
    #: the underlying RunReport (module stats, quarantine, profile)
    report: Any
    #: the data's fingerprint, when it has one (curation corpora)
    corpus: str

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are not fields: a score by name.
        scores = self.__dict__.get("scores", {})
        if name in scores:
            return scores[name]
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")


#: task name -> row, in registration order.
TASKS: dict[str, Task] = {}


def register(task: Task) -> None:
    """Add ``task`` to the table (the job server serves every row)."""
    if task.name in TASKS:
        raise ValueError(f"task {task.name!r} is already registered")
    TASKS[task.name] = task


def ref_int(
    ref: dict, key: str, default: int | None, minimum: int | None = None
) -> int | None:
    """An integer field of a dataset reference (``None`` stays ``None``)."""
    value = ref.get(key, default)
    if value is None:
        return None
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"dataset field {key!r} must be an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"dataset field {key!r} must be at least {minimum}")
    return value


def run(
    name: str,
    system,
    data: Any,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    checkpoint_path: Any = None,
    checkpoint: Any = None,
    **options: Any,
) -> TaskResult:
    """Build row ``name`` on ``data``, run it on ``system``, score it.

    The execution keywords go to :meth:`LinguaManga.run` (``workers``,
    ``chunk_size``, ``checkpoint_path`` / ``checkpoint`` for crash-safe
    resume); ``options`` are the row's own.
    """
    task = TASKS[name]
    settings = task.settings(options)
    plan = task.build(data, **settings)
    before = system.usage()
    report = system.run(
        plan.pipeline,
        plan.inputs,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
        checkpoint=checkpoint,
    )
    usage = usage_delta(before, system.usage())
    scores, predictions = plan.score(next(iter(report.outputs.values()), []))
    return TaskResult(
        task=task.label or name,
        scores=scores,
        predictions=predictions,
        report=report,
        corpus=getattr(data, "fingerprint", ""),
        **usage,
    )


# -- the row with no domain: a served DSL program ---------------------------------


def _resolve_inputs(ref: dict, probe: bool) -> dict | None:
    inputs = ref.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError("dsl dataset ref must carry an 'inputs' object")
    return None if probe else dict(inputs)


def _build_program(inputs: dict, program: str) -> Plan:
    """The user's DSL text is the pipeline; there is no ground truth to score."""
    return Plan(parse_pipeline(program), inputs, lambda output: ({}, []))


register(Task("dsl", _resolve_inputs, {"program": ""}, _build_program))
