"""Data-imputation task: the section 4.3 flow, packaged.

Two Lingua Manga variants are provided, matching the paper's comparison:

- **pure LLM module** — every record goes to the LLM (accuracy 93.92% in
  the paper);
- **optimized hybrid** — the validator-repaired LLMGC module resolves
  brand-mentioning records locally and escalates only the hard ones,
  "using only 1/6 LLM calls to achieve higher accuracy" (94.48%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.dsl.builder import PipelineBuilder
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.imputation import ImputationRecord
from repro.llm.service import usage_delta
from repro.ml.metrics import accuracy

__all__ = ["ImputationResult", "run_llm_imputation", "run_hybrid_imputation"]


@dataclass(frozen=True)
class ImputationResult:
    """Outcome of one imputation run."""

    method: str
    accuracy: float
    predictions: list[str]
    llm_calls: int
    cost: float
    cached_calls: int = 0
    distilled_calls: int = 0
    #: the underlying RunReport (module stats, quarantine, profile)
    report: Any = None


def _score(
    method: str,
    system: LinguaManga,
    records: list[ImputationRecord],
    raw_predictions: list,
    before,
    after,
    report=None,
) -> ImputationResult:
    predictions = [
        "Unknown" if p is None else str(p).strip() for p in raw_predictions
    ]
    return ImputationResult(
        method=method,
        accuracy=accuracy([r.manufacturer for r in records], predictions),
        predictions=predictions,
        **usage_delta(before, after),
        report=report,
    )


def run_llm_imputation(
    system: LinguaManga,
    records: list[ImputationRecord],
    workers: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = True,
    checkpoint: Any = None,
    cancel: Any = None,
) -> ImputationResult:
    """Pure LLM-module pipeline: one (validated) prompt per record.

    ``checkpoint_path`` makes the run crash-safe and resumable (see
    :meth:`LinguaManga.run`).
    """
    pipeline = (
        PipelineBuilder("imputation_pure_llm", "LLM module for every record")
        .load(source="records")
        .impute(impl="llm")
        .save(key="imputed")
        .build()
    )
    before = system.usage()
    report = system.run(
        pipeline,
        {"records": [r.visible() for r in records]},
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    after = system.usage()
    return _score(
        "pure_llm",
        system,
        records,
        next(iter(report.outputs.values())),
        before,
        after,
        report=report,
    )


def run_hybrid_imputation(
    system: LinguaManga,
    records: list[ImputationRecord],
    workers: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = True,
    checkpoint: Any = None,
    cancel: Any = None,
) -> ImputationResult:
    """The expert template: LLMGC rules + LLM escalation (Figure 4).

    ``workers`` is accepted for API symmetry with the other task runners;
    the LLMGC stage is not parallel-safe (self-repairing codegen), so the
    scheduler runs it whole-input sequentially either way.
    ``checkpoint_path`` makes the run crash-safe and resumable (see
    :meth:`LinguaManga.run`).
    """
    pipeline = get_template("data_imputation").instantiate()
    before = system.usage()
    report = system.run(
        pipeline,
        {"records": [r.visible() for r in records]},
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    after = system.usage()
    return _score(
        "hybrid_llmgc",
        system,
        records,
        next(iter(report.outputs.values())),
        before,
        after,
        report=report,
    )
