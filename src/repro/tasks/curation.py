"""Corpus-curation tasks: deduplication, quality filtering, decontamination.

Registers the three curation rows of :mod:`repro.tasks.table` the way
:mod:`repro.tasks.entity_resolution` registers ER: instantiate the template
with corpus-derived few-shot examples, run it through
:meth:`~repro.core.runtime.system.LinguaManga.run`, score against the
corpus's planted ground truth.  A served job names its corpus by
``{"n_docs", "seed"}``.
"""

from __future__ import annotations

from functools import partial

from repro.core.compiler.curation import dedup_candidate_pairs
from repro.core.templates.library import get_template
from repro.datasets.curation import CurationCorpus
from repro.ml.metrics import f1_score
from repro.tasks.table import Plan, Task, ref_int, register, run

__all__ = ["run_dedup", "run_quality_filter", "run_decontamination"]


def _resolve(ref: dict, probe: bool) -> CurationCorpus | None:
    n_docs = ref_int(ref, "n_docs", 120, minimum=1)
    seed = ref_int(ref, "seed", 7)
    return None if probe else CurationCorpus(n_docs=n_docs, seed=seed)


def _dedup(corpus: CurationCorpus, n_examples: int) -> Plan:
    """The whole-corpus candidate kernel runs inside the pipeline, then the
    verifier cascade over its pairs."""
    pipeline = get_template("document_dedup").instantiate(
        examples=corpus.dedup_examples(n_examples)
    )
    # Each document is derived once, for records and labels.
    docs = list(corpus)
    records = [doc.record() for doc in docs]

    def score(verdicts: list) -> tuple[dict, list]:
        # Pair ids are not part of the report.  The kernel just scanned these
        # records with these knobs, so this is its answer, not a second scan.
        pair_ids = dedup_candidate_pairs(records)
        if len(verdicts) != len(pair_ids):
            raise RuntimeError(
                f"verifier returned {len(verdicts)} verdicts for {len(pair_ids)} pairs"
            )
        # A document is a duplicate when a verified pair links it to a
        # lower-id partner (the cluster canonical keeps its place).
        duplicates = {max(pair) for pair, verdict in zip(pair_ids, verdicts) if verdict}
        labels = [int(doc.is_duplicate) for doc in docs]
        predictions = [int(doc.doc_id in duplicates) for doc in docs]
        return {"f1": f1_score(labels, predictions)}, predictions

    return Plan(pipeline, {"documents": records}, score)


def _flag_plan(pipeline, corpus: CurationCorpus, key: str, label_of) -> Plan:
    """A per-document flag task (``item[key]``), scored by F1 against
    ``label_of(doc)``.  Each document is derived once, for records and labels."""
    docs = list(corpus)

    def score(output: list) -> tuple[dict, list]:
        predictions = [int(bool(item[key])) for item in output]
        labels = [int(label_of(doc)) for doc in docs]
        return {"f1": f1_score(labels, predictions)}, predictions

    return Plan(pipeline, {"documents": [doc.record() for doc in docs]}, score)


def _quality(corpus: CurationCorpus, n_examples: int, distill: bool) -> Plan:
    """The quality-filter cascade, scored by keep/drop F1."""
    pipeline = get_template("quality_filter").instantiate(
        examples=corpus.quality_examples(n_examples), distill=distill
    )
    return _flag_plan(pipeline, corpus, "keep", lambda doc: doc.keep)


def _decontamination(corpus: CurationCorpus, n_examples: int) -> Plan:
    """The scan against the corpus's held-out eval set, scored by contamination F1."""
    pipeline = get_template("decontamination").instantiate(
        eval_items=list(corpus.eval_set.items()),
        examples=corpus.decontamination_examples(n_examples),
    )
    return _flag_plan(pipeline, corpus, "contaminated", lambda doc: doc.contaminated)


register(Task("dedup", _resolve, {"n_examples": 4}, _dedup, "document_dedup"))
register(Task("quality_filter", _resolve, {"n_examples": 4, "distill": False}, _quality))
register(Task("decontamination", _resolve, {"n_examples": 4}, _decontamination))

#: ``run_dedup(system, corpus, *, n_examples=4, ...)``, and
#: so on: each runner is :func:`~repro.tasks.table.run` bound to its row.
run_dedup = partial(run, "dedup")
run_quality_filter = partial(run, "quality_filter")
run_decontamination = partial(run, "decontamination")
