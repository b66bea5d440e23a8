"""Name-extraction task: the section 4.2 flow, packaged.

Runs the Figure 3 pipeline over a (multilingual) corpus and scores
name-level precision/recall/F1 against ground truth.  Variants cover the
demo's storyline: a monolingual first draft, the language-detection fix, and
the simulator-accelerated version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.names import NameDocument
from repro.llm.service import usage_delta

__all__ = ["NameExtractionResult", "score_extractions", "run_name_extraction"]


@dataclass(frozen=True)
class NameExtractionResult:
    """Outcome of one name-extraction run."""

    variant: str
    precision: float
    recall: float
    f1: float
    llm_calls: int
    cost: float
    per_language_f1: dict[str, float]
    cached_calls: int = 0
    distilled_calls: int = 0
    #: the underlying RunReport (module stats, quarantine, profile)
    report: Any = None


def score_extractions(
    documents: list[NameDocument], extracted: list[list[str]]
) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 over name sets per document."""
    if len(documents) != len(extracted):
        raise ValueError("documents and extractions must align")
    tp = fp = fn = 0
    for document, names in zip(documents, extracted):
        truth = set(document.names)
        found = set(names)
        tp += len(truth & found)
        fp += len(found - truth)
        fn += len(truth - found)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def run_name_extraction(
    system: LinguaManga,
    documents: list[NameDocument],
    multilingual: bool = True,
    simulate_tagging: bool = False,
    variant: str | None = None,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = True,
    checkpoint: Any = None,
    cancel: Any = None,
) -> NameExtractionResult:
    """Run the Figure 3 template over ``documents`` and score it.

    ``checkpoint_path`` makes the run crash-safe and resumable (see
    :meth:`LinguaManga.run`).
    """
    pipeline = get_template("name_extraction").instantiate(
        multilingual=multilingual, simulate_tagging=simulate_tagging
    )
    before = system.usage()
    report = system.run(
        pipeline,
        {"documents": [{"text": d.text} for d in documents]},
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    after = system.usage()
    enriched = next(iter(report.outputs.values()))
    extracted = [doc.get("names", []) for doc in enriched]
    precision, recall, f1 = score_extractions(documents, extracted)

    per_language: dict[str, float] = {}
    languages = sorted({d.language for d in documents})
    for language in languages:
        subset = [
            (d, names)
            for d, names in zip(documents, extracted)
            if d.language == language
        ]
        _, _, lang_f1 = score_extractions(
            [d for d, _ in subset], [names for _, names in subset]
        )
        per_language[language] = lang_f1

    label = variant or (
        ("multilingual" if multilingual else "monolingual")
        + ("+simulator" if simulate_tagging else "")
    )
    return NameExtractionResult(
        variant=label,
        precision=precision,
        recall=recall,
        f1=f1,
        per_language_f1=per_language,
        **usage_delta(before, after),
        report=report,
    )
