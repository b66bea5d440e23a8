"""Each document's work is done once per curation run — counted, not timed.

The batch runners used to derive every document two to four times
(``CurationCorpus.doc`` per pass over the corpus, canonicalise + shingle
per scan and again per candidate pair), and a batch dedup run scanned for
candidates twice (the pipeline's kernel, then the runner's score).  These
tests count calls, so the redundancy cannot creep back unnoticed on a
machine where it happens to be fast.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.compiler.curation as kernels
import repro.text.shingle as shingle
from repro.core.runtime.system import LinguaManga
from repro.datasets.curation import CurationCorpus
from repro.tasks.curation import run_dedup

N_DOCS = 60


@pytest.fixture()
def corpus() -> CurationCorpus:
    return CurationCorpus(n_docs=N_DOCS, seed=7)


@pytest.fixture()
def cold_sketches():
    """Start (and leave) with no earlier scan's pairs and sketches remembered."""
    kernels.dedup_candidate_pairs([])
    yield
    kernels.dedup_candidate_pairs([])


@pytest.fixture()
def minhashed(monkeypatch) -> list[int]:
    """Rows of every ``minhash_signatures_many`` call, after a scan of nothing
    (so no earlier test's corpus is the last scan)."""
    kernels.dedup_candidate_pairs([])
    rows: list[int] = []
    signatures = kernels.minhash_signatures_many

    def counted(id_rows, a, b):
        rows.append(len(id_rows))
        return signatures(id_rows, a, b)

    monkeypatch.setattr(kernels, "minhash_signatures_many", counted)
    return rows


def _count_doc_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    derive = CurationCorpus.doc

    def counted(self, index):
        calls[index] += 1
        return derive(self, index)

    monkeypatch.setattr(CurationCorpus, "doc", counted)
    return calls


def test_batch_dedup_derives_and_normalises_each_document_once(
    corpus, cold_sketches, monkeypatch
):
    normalised: Counter = Counter()
    normalize_text = shingle.normalize_text

    def counted_normalize(text):
        normalised[text] += 1
        return normalize_text(text)

    monkeypatch.setattr(shingle, "normalize_text", counted_normalize)
    doc_calls = _count_doc_calls(monkeypatch)

    corpus.dedup_examples(4)
    example_picks = Counter(doc_calls)
    doc_calls.clear()

    result = run_dedup(LinguaManga(), corpus)
    assert any(result.predictions)

    # Kernel scan, runner id pass and both sides of every candidate pair
    # share one knowledge-canonical form per distinct text.
    assert len(normalised) == len({doc.text for doc in corpus.materialize()}) == N_DOCS
    assert set(normalised.values()) == {1}
    # One derivation per index, plus only what the few-shot picker reads.
    doc_calls.subtract(example_picks)
    doc_calls.subtract(range(N_DOCS))  # the materialize() just above
    assert dict(doc_calls) == {index: 1 for index in range(N_DOCS)}


def test_batch_dedup_minhashes_each_document_once_per_tier(corpus, minhashed):
    result = run_dedup(LinguaManga(), corpus)
    assert any(result.predictions)
    # The kernel's scan, one batch per tier; the score reads its pairs.
    assert minhashed == [N_DOCS, N_DOCS]


def test_the_last_scan_answers_only_its_own_ids_texts_and_knobs(corpus, minhashed):
    records = [doc.record() for doc in corpus]
    pairs = kernels.dedup_candidate_pairs(records)
    assert kernels.dedup_candidate_pairs([dict(record) for record in records]) == pairs
    assert len(minhashed) == 2
    edited = [dict(record) for record in records]
    edited[0]["text"] += " and one more sentence"
    renamed = [{**record, "id": f"x{record['id']}"} for record in records]
    # Each differs from the scan before it in one thing: knobs, a text, the ids.
    for docs, knobs in ((records, {"dual": False}), (edited, {"dual": False}), (renamed, {})):
        before = len(minhashed)
        kernels.dedup_candidate_pairs(docs, **knobs)
        assert len(minhashed) > before
    assert {side[0] for pair in kernels.dedup_candidate_pairs(renamed) for side in pair} == {"x"}


def test_a_verify_rung_that_finds_no_scan_sketch_changes_no_result(corpus, monkeypatch):
    """Every pair is scored from sketches the verify rung makes itself."""
    records = [doc.record() for doc in corpus]
    pairs = kernels.dedup_candidate_pairs(records)
    expected = run_dedup(LinguaManga(), corpus)
    assert pairs and any(expected.predictions)

    scan = kernels.dedup_candidate_pairs

    def forgetful(docs, **knobs):
        found = scan(docs, **knobs)
        key, memo, shingle_n, _ = kernels._last_scan
        kernels._last_scan = (key, memo, shingle_n, {})
        return found

    sketched: list[int] = []
    sketch = kernels.document_sketches

    def counted(texts, n):
        texts = list(texts)
        sketched.append(len(texts))
        return sketch(texts, n)

    monkeypatch.setattr(kernels, "dedup_candidate_pairs", forgetful)
    monkeypatch.setattr(kernels, "document_sketches", counted)
    kernels.dedup_candidate_pairs([])  # the next scan scans, it does not recall
    assert kernels.dedup_candidate_pairs(records[::-1]) == pairs
    sketched.clear()
    batch = run_dedup(LinguaManga(), corpus)
    assert batch.predictions == expected.predictions
    assert batch.report.canonical_json() == expected.report.canonical_json()
    # The kernel's scan, then one two-document sketch per verified pair.
    assert sketched == [N_DOCS] + [2] * len(pairs)
