"""Corpus-curation tasks: deduplication, quality filtering, decontamination.

Registers the three curation rows of :mod:`repro.tasks.table` the way
:mod:`repro.tasks.entity_resolution` registers ER: instantiate the template
with corpus-derived few-shot examples, run it through
:meth:`~repro.core.runtime.system.LinguaManga.run` (or, out of core,
:meth:`~repro.core.runtime.system.LinguaManga.run_stream`), score against
the corpus's planted ground truth.  A served job names its corpus by
``{"n_docs", "seed"}``.

The streaming dedup path needs candidate pairs *without materialising the
corpus*: :func:`iter_dedup_candidate_ids` re-implements the in-memory
kernel :func:`repro.core.compiler.curation.dedup_candidate_pairs` as a
two-pass external algorithm — band-key postings are spilled to hash
partitions on disk during a single pass over the document stream, then each
partition is bucketed independently and the per-partition sorted pair runs
are merged with :func:`heapq.merge`.  The merged stream is *identical*,
pair for pair, to the in-memory kernel's output (the property suite locks
this), while peak memory stays O(batch + one partition's postings)
regardless of corpus size.
"""

from __future__ import annotations

import heapq
import itertools
import json
import shutil
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro._util import chunked, stable_hash
from repro.core.compiler.curation import (
    DEDUP_BANDS,
    DEDUP_NUM_PERM,
    DEDUP_ROWS,
    DEDUP_SHINGLE_N,
    _bucket_pairs,
    _doc_id,
    _doc_text,
    dedup_candidate_pairs,
    tier_band_keys,
)
from repro.core.templates.library import get_template
from repro.datasets.curation import CurationCorpus
from repro.ml.metrics import f1_score
from repro.tasks.table import Plan, Task, ref_int, register, run
from repro.text.minhash import MinHashParams, minhash_params
from repro.text.shingle import document_sketch

__all__ = [
    "iter_dedup_candidate_ids",
    "iter_dedup_candidates",
    "run_dedup",
    "run_quality_filter",
    "run_decontamination",
]


# ---------------------------------------------------------------------------
# Memory-flat candidate generation (streaming counterpart of the kernel)
# ---------------------------------------------------------------------------


def _spill_id(doc_id: Any) -> str:
    """A document id as its spill-file field (JSON, so its type survives)."""
    if not isinstance(doc_id, (str, int)):
        raise TypeError(
            f"streaming dedup needs str or int document ids, got {doc_id!r}"
        )
    return json.dumps(doc_id)


def _posting_lines(
    batch: list[Any],
    start: int,
    params: MinHashParams,
    bands: int,
    rows: int,
    shingle_n: int,
    dual: bool,
) -> Iterator[tuple[str, str]]:
    """``(bucket_key, id_field)`` postings for one record batch.

    ``start`` is the stream position of the batch's first record: a record
    without an ``"id"`` is numbered by its position in the whole stream, as
    the in-memory kernel numbers it.  Bucket keys are namespaced per tier
    (``x:`` digest, ``s:`` simple LSH, ``k:`` knowledge LSH) so buckets
    never mix across tiers — exactly the separation the in-memory kernel
    keeps with its per-tier dictionaries.
    """
    fields = [
        _spill_id(_doc_id(record, start + offset))
        for offset, record in enumerate(batch)
    ]
    sketches = [document_sketch(_doc_text(record), shingle_n) for record in batch]
    for field, sketch in zip(fields, sketches):
        yield f"x:{sketch.digest}", field
    for tag, all_keys in tier_band_keys(sketches, params, bands, rows, dual):
        for field, keys in zip(fields, all_keys):
            for key in keys:
                yield f"{tag}:{key}", field


def iter_dedup_candidate_ids(
    records: Iterable[Any],
    *,
    num_perm: int = DEDUP_NUM_PERM,
    bands: int = DEDUP_BANDS,
    rows: int = DEDUP_ROWS,
    shingle_n: int = DEDUP_SHINGLE_N,
    dual: bool = True,
    partitions: int = 16,
    batch_size: int = 256,
    spill_dir: str | Path | None = None,
    stats: dict | None = None,
) -> Iterator[tuple]:
    """Stream the candidate pairs of ``records`` without materialising them.

    Yields exactly the sorted ``(left_id, right_id)`` sequence of
    :func:`repro.core.compiler.curation.dedup_candidate_pairs` — same
    tiers, same kernels, same global order — but consumes ``records`` as a
    one-shot stream: pass 1 spills ``(bucket_key, doc_id)`` postings into
    ``partitions`` hash partitions on disk, pass 2 buckets one partition at
    a time and merges the per-partition sorted pair runs.  Peak memory is
    O(``batch_size`` documents + one partition's postings), independent of
    corpus size.  Document ids must be ``str`` or ``int``: they cross the
    spill as JSON fields and come back with their type, so the merged order
    is the kernel's.

    ``stats`` (optional dict) receives accounting the memory-flatness tests
    assert on: ``docs``, ``postings``, ``peak_partition_postings``,
    ``spilled_bytes``.
    """
    if bands * rows != num_perm:
        raise ValueError(f"bands*rows must equal num_perm ({bands}*{rows} != {num_perm})")
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    params = minhash_params(num_perm)
    own_dir = spill_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-dedup-")) if own_dir else Path(spill_dir)
    root.mkdir(parents=True, exist_ok=True)
    accounting = {"docs": 0, "postings": 0, "peak_partition_postings": 0, "spilled_bytes": 0}
    try:
        files = [open(root / f"part-{i:03d}.tsv", "wb") for i in range(partitions)]
        try:
            for batch in chunked(records, batch_size):
                start = accounting["docs"]
                accounting["docs"] += len(batch)
                for key, field in _posting_lines(
                    batch, start, params, bands, rows, shingle_n, dual
                ):
                    line = f"{key}\t{field}\n".encode("ascii")
                    files[stable_hash("dedup-part", key) % partitions].write(line)
                    accounting["postings"] += 1
                    accounting["spilled_bytes"] += len(line)
        finally:
            for handle in files:
                handle.close()

        def partition_pairs(index: int) -> list[tuple]:
            buckets: dict[str, set] = {}
            count = 0
            with open(root / f"part-{index:03d}.tsv", encoding="ascii") as handle:
                for line in handle:
                    key, _, field = line.partition("\t")
                    buckets.setdefault(key, set()).add(field)
                    count += 1
            accounting["peak_partition_postings"] = max(
                accounting["peak_partition_postings"], count
            )
            pairs: set[tuple] = set()
            # Most buckets hold one document; only the rest need their ids back.
            shared = (
                {json.loads(field) for field in bucket}
                for bucket in buckets.values()
                if len(bucket) > 1
            )
            _bucket_pairs(shared, pairs)
            return sorted(pairs)

        merged = heapq.merge(*(partition_pairs(i) for i in range(partitions)))
        for pair, _ in itertools.groupby(merged):
            yield pair
    finally:
        if stats is not None:
            stats.update(accounting)
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)


def iter_dedup_candidates(corpus: CurationCorpus) -> Iterator[dict]:
    """Stream candidate pairs as the ``{"left", "right"}`` records the
    pairs-mode dedup template consumes.

    ``corpus`` must be index-addressable (``doc(i)``) so pair sides can be
    re-derived on demand — the stream never holds more than the two
    documents of the current pair (plus the scan's bounded state).
    """

    def fetch(doc_id: str) -> dict:
        return corpus.doc(int(doc_id[1:])).record()

    for left_id, right_id in iter_dedup_candidate_ids(corpus.inputs()):
        yield {"left": fetch(left_id), "right": fetch(right_id)}


# ---------------------------------------------------------------------------
# The three rows
# ---------------------------------------------------------------------------


def _resolve(ref: dict, probe: bool) -> CurationCorpus | None:
    n_docs = ref_int(ref, "n_docs", 120, minimum=1)
    seed = ref_int(ref, "seed", 7)
    return None if probe else CurationCorpus(n_docs=n_docs, seed=seed)


def _dedup_scores(docs: Iterable[Any], pair_ids: list[tuple], verdicts: list) -> tuple:
    """A document is flagged duplicate when any verified pair links it to a
    lower-id partner (the cluster canonical keeps its place)."""
    if len(verdicts) != len(pair_ids):
        raise RuntimeError(
            f"verifier returned {len(verdicts)} verdicts for {len(pair_ids)} pairs"
        )
    duplicates = {max(a, b) for (a, b), verdict in zip(pair_ids, verdicts) if verdict}
    labels, predictions = [], []
    for doc in docs:
        labels.append(int(doc.is_duplicate))
        predictions.append(int(doc.doc_id in duplicates))
    return {"f1": f1_score(labels, predictions)}, predictions


def _dedup(corpus: CurationCorpus, n_examples: int) -> Plan:
    """The docs-mode template: the whole-corpus candidate kernel runs inside
    the pipeline, then the verifier cascade over its pairs."""
    pipeline = get_template("document_dedup").instantiate(
        mode="docs", examples=corpus.dedup_examples(n_examples)
    )
    # Batch derives each document once, for records and labels.
    docs = list(corpus)
    records = [doc.record() for doc in docs]

    def score(verdicts: list) -> tuple[dict, list]:
        # Pair ids are not part of the report.  The kernel just scanned these
        # records with these knobs, so this is its answer, not a second scan.
        return _dedup_scores(docs, dedup_candidate_pairs(records), verdicts)

    return Plan(pipeline, {"documents": records}, score)


def _dedup_stream(corpus: CurationCorpus, n_examples: int) -> Plan:
    """The memory-flat external scan feeds candidate pairs to the pairs-mode
    template's verifier core — same verdicts as batch, bounded memory."""
    pipeline = get_template("document_dedup").instantiate(
        mode="pairs", examples=corpus.dedup_examples(n_examples)
    )
    # The executor drains the source on every run (a resume consumes and
    # discards the shards it replays), so the ids it saw are all of them.
    pair_ids: list[tuple] = []

    def candidates() -> Iterator[dict]:
        for pair in iter_dedup_candidates(corpus):
            pair_ids.append((pair["left"]["id"], pair["right"]["id"]))
            yield pair

    return Plan(
        pipeline,
        {"pairs": candidates()},
        lambda verdicts: _dedup_scores(corpus, pair_ids, verdicts),
        f"{corpus.fingerprint}|dedup-pairs",
    )


def _flag_plan(
    pipeline, corpus: CurationCorpus, stream: bool, key: str, label_of, tag: str
) -> Plan:
    """A per-document flag task (``item[key]``), scored by F1 against
    ``label_of(doc)``.  Batch derives each document once, for records and
    labels; a stream stays lazy and derives the labels after the run."""
    docs = corpus if stream else list(corpus)

    def score(output: list) -> tuple[dict, list]:
        predictions = [int(bool(item[key])) for item in output]
        labels = [int(label_of(doc)) for doc in docs]
        return {"f1": f1_score(labels, predictions)}, predictions

    if stream:
        return Plan(pipeline, {"documents": corpus.inputs()}, score, f"{corpus.fingerprint}|{tag}")
    return Plan(pipeline, {"documents": [doc.record() for doc in docs]}, score)


def _quality(corpus: CurationCorpus, n_examples: int, distill: bool, stream: bool = False) -> Plan:
    """The quality-filter cascade, scored by keep/drop F1."""
    pipeline = get_template("quality_filter").instantiate(
        examples=corpus.quality_examples(n_examples), distill=distill
    )
    return _flag_plan(pipeline, corpus, stream, "keep", lambda doc: doc.keep, "quality")


def _decontamination(corpus: CurationCorpus, n_examples: int, stream: bool = False) -> Plan:
    """The scan against the corpus's held-out eval set, scored by contamination F1."""
    pipeline = get_template("decontamination").instantiate(
        eval_items=list(corpus.eval_set.items()),
        examples=corpus.decontamination_examples(n_examples),
    )
    return _flag_plan(
        pipeline, corpus, stream, "contaminated", lambda doc: doc.contaminated, "decontam"
    )


register(Task("dedup", _resolve, {"n_examples": 4}, _dedup, _dedup_stream, "document_dedup"))
register(
    Task("quality_filter", _resolve, {"n_examples": 4, "distill": False}, _quality,
         partial(_quality, stream=True))
)
register(
    Task("decontamination", _resolve, {"n_examples": 4}, _decontamination,
         partial(_decontamination, stream=True))
)

#: ``run_dedup(system, corpus, *, n_examples=4, stream=False, ...)``, and
#: so on: each runner is :func:`~repro.tasks.table.run` bound to its row.
run_dedup = partial(run, "dedup")
run_quality_filter = partial(run, "quality_filter")
run_decontamination = partial(run, "decontamination")
