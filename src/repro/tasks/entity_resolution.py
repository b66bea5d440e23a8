"""Entity-resolution task: the section 4.1 flow, packaged.

Builds the Lingua Manga solution a novice gets from the template — an LLM
matcher with a curated task description and a handful of few-shot examples —
and evaluates it with the Table 1 protocol.
"""

from __future__ import annotations

from functools import partial

from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import (
    ER_DATASET_NAMES,
    ERDataset,
    RecordPair,
    generate_er_dataset,
)
from repro.ml.metrics import f1_score
from repro.tasks.table import Plan, Task, ref_int, register, run

__all__ = ["pick_examples", "run_lingua_manga_er", "pairs_as_inputs"]


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


def _resolve(ref: dict, probe: bool) -> ERDataset | None:
    name = str(ref.get("name", "beer"))
    if name not in ER_DATASET_NAMES:
        raise ValueError(f"unknown ER dataset {name!r}; have {sorted(ER_DATASET_NAMES)}")
    seed = ref_int(ref, "seed", 7)
    n_entities = ref_int(ref, "n_entities", None)
    return None if probe else generate_er_dataset(name, seed=seed, n_entities=n_entities)


def _build(dataset: ERDataset, n_examples: int, distill: bool) -> Plan:
    """The ER template on the test split, scored by F1.

    ``distill=True`` attaches the optimizer's distillation router to the
    matcher, so high-confidence pairs are answered by a shadow-trained
    local classifier instead of the provider.
    """
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, n_examples), distill=distill
    )
    labels = [p.label for p in dataset.test]

    def score(verdicts: list) -> tuple[dict, list]:
        predictions = [int(bool(v)) for v in verdicts]
        return {"f1": f1_score(labels, predictions)}, predictions

    return Plan(pipeline, {"pairs": pairs_as_inputs(dataset.test)}, score)


register(Task("er", _resolve, {"n_examples": 4, "distill": False}, _build))

#: ``run_lingua_manga_er(system, dataset, *, n_examples=4, distill=False, ...)``
run_lingua_manga_er = partial(run, "er")
