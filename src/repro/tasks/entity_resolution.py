"""Entity-resolution task: the section 4.1 flow, packaged.

Builds the Lingua Manga solution a novice gets from the template — an LLM
matcher with a curated task description and a handful of few-shot examples —
and evaluates it with the Table 1 protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import ERDataset, RecordPair
from repro.llm.service import usage_delta
from repro.ml.metrics import f1_score

__all__ = ["ERResult", "pick_examples", "run_lingua_manga_er", "pairs_as_inputs"]


@dataclass(frozen=True)
class ERResult:
    """Outcome of one entity-resolution run.

    ``cached_calls``/``distilled_calls`` break down how many answers were
    produced without paying the provider (cache hits and distilled
    local-model answers).
    """

    dataset: str
    f1: float
    predictions: list[int]
    llm_calls: int
    cost: float
    cached_calls: int = 0
    distilled_calls: int = 0
    #: the underlying RunReport (module stats, quarantine, profile)
    report: Any = None


def pick_examples(pairs: list[RecordPair], k: int = 4) -> list[tuple[tuple, bool]]:
    """Choose ``k`` balanced few-shot examples from labelled pairs.

    This is the paper's label efficiency: a handful of examples, not the
    thousands the supervised baselines consume.
    """
    positives = [p for p in pairs if p.label == 1]
    negatives = [p for p in pairs if p.label == 0]
    chosen: list[RecordPair] = []
    for index in range(k):
        source = positives if index % 2 == 0 else negatives
        if index // 2 < len(source):
            chosen.append(source[index // 2])
    return [((p.left, p.right), bool(p.label)) for p in chosen]


def pairs_as_inputs(pairs: list[RecordPair]) -> list[dict]:
    """Convert dataset pairs to the pipeline's input format."""
    return [{"left": p.left, "right": p.right} for p in pairs]


def run_lingua_manga_er(
    system: LinguaManga,
    dataset: ERDataset,
    n_examples: int = 4,
    workers: int | None = None,
    distill: bool = False,
    distill_config: dict | None = None,
    checkpoint_path: str | None = None,
    resume: bool = True,
    checkpoint: Any = None,
    cancel: Any = None,
) -> ERResult:
    """Instantiate the ER template, run it on the test split, score F1.

    ``workers`` routes execution through the concurrent scheduler; results
    are identical at any worker count (see the determinism test suite).
    ``distill=True`` attaches the optimizer's distillation router to the
    matcher so high-confidence pairs are answered by a shadow-trained
    local classifier instead of the provider.  ``checkpoint_path`` makes
    the run crash-safe and resumable (see :meth:`LinguaManga.run`).
    """
    examples = pick_examples(dataset.train, n_examples)
    pipeline = get_template("entity_resolution").instantiate(
        examples=examples, distill=distill, distill_config=distill_config
    )
    before = system.usage()
    report = system.run(
        pipeline,
        {"pairs": pairs_as_inputs(dataset.test)},
        workers=workers,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint=checkpoint,
        cancel=cancel,
    )
    after = system.usage()
    verdicts = next(iter(report.outputs.values()))
    predictions = [int(bool(v)) for v in verdicts]
    return ERResult(
        dataset=dataset.name,
        f1=f1_score([p.label for p in dataset.test], predictions),
        predictions=predictions,
        **usage_delta(before, after),
        report=report,
    )
