"""Name-extraction task: the section 4.2 flow, packaged.

Runs the Figure 3 pipeline over a (multilingual) corpus and scores
name-level precision/recall/F1 against ground truth.  The options cover the
demo's storyline: a monolingual first draft (``multilingual=False``), the
language-detection fix, and the simulator-accelerated version
(``simulate_tagging=True``).
"""

from __future__ import annotations

from functools import partial

from repro.core.templates.library import get_template
from repro.datasets.names import NameDocument, generate_name_dataset
from repro.tasks.table import Plan, Task, ref_int, register, run

__all__ = ["score_extractions", "run_name_extraction"]


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


def _resolve(ref: dict, probe: bool) -> list[NameDocument] | None:
    seed = ref_int(ref, "seed", 3)
    n_documents = ref_int(ref, "n_documents", 80, minimum=1)
    if probe:
        return None
    return generate_name_dataset(seed=seed, n_documents=n_documents).documents


def _build(documents: list[NameDocument], multilingual: bool, simulate_tagging: bool) -> Plan:
    """The Figure 3 template over ``documents``; predictions are the names found."""
    pipeline = get_template("name_extraction").instantiate(
        multilingual=multilingual, simulate_tagging=simulate_tagging
    )

    def score(enriched: list) -> tuple[dict, list]:
        extracted = [doc.get("names", []) for doc in enriched]
        precision, recall, f1 = score_extractions(documents, extracted)
        per_language: dict[str, float] = {}
        for language in sorted({d.language for d in documents}):
            subset = [
                (d, names) for d, names in zip(documents, extracted) if d.language == language
            ]
            per_language[language] = score_extractions(
                [d for d, _ in subset], [names for _, names in subset]
            )[2]
        scores = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "per_language_f1": per_language,
        }
        return scores, extracted

    return Plan(pipeline, {"documents": [{"text": d.text} for d in documents]}, score)


register(Task("names", _resolve, {"multilingual": True, "simulate_tagging": False}, _build))

#: ``run_name_extraction(system, documents, *, multilingual=True, simulate_tagging=False, ...)``
run_name_extraction = partial(run, "names")
