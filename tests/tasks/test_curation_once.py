"""Each document's work is done once per curation run — counted, not timed.

The batch runners used to derive every document two to four times
(``CurationCorpus.doc`` per pass over the corpus, canonicalise + shingle
per scan and again per candidate pair).  These tests count calls, so the
redundancy cannot creep back unnoticed on a machine where it happens to be
fast; and they pin the two defects of the streaming scan's id handling
(batch-local numbering of id-less records, ids stringified by the spill).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import pytest

import repro.core.compiler.curation as kernels
import repro.tasks.curation as tasks
import repro.text.shingle as shingle
from repro.core.runtime.system import LinguaManga
from repro.datasets.curation import CurationCorpus
from repro.tasks.curation import iter_dedup_candidate_ids, run_dedup

N_DOCS = 60


@pytest.fixture()
def corpus() -> CurationCorpus:
    return CurationCorpus(n_docs=N_DOCS, seed=7)


@pytest.fixture()
def cold_sketches():
    """Start (and leave) the process-wide sketch LRU empty."""
    shingle.document_sketch.cache_clear()
    yield
    shingle.document_sketch.cache_clear()


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


def test_stream_dedup_runs_one_external_scan(corpus, monkeypatch):
    batch = run_dedup(LinguaManga(), corpus)
    scans = []

    def counted_scan(records, **kernel):
        scans.append(kernel)
        return iter_dedup_candidate_ids(records, **kernel)

    monkeypatch.setattr(tasks, "iter_dedup_candidate_ids", counted_scan)
    streamed = run_dedup(LinguaManga(), corpus, stream=True, chunk_size=16)
    assert len(scans) == 1
    assert streamed.predictions == batch.predictions


def test_stream_dedup_resume_sees_every_pair_id(corpus, tmp_path):
    """A resumed run replays its shards; the id list must still be whole."""
    ledger = tmp_path / "dedup.wal"
    first = run_dedup(LinguaManga(), corpus, stream=True, chunk_size=8, ledger_path=ledger)
    again = run_dedup(LinguaManga(), corpus, stream=True, chunk_size=8, ledger_path=ledger)
    recovery = again.report.recovery
    assert recovery["replayed_shards"] == recovery["shards"] > 1
    assert again.predictions == first.predictions
    assert any(again.predictions)


def test_lru_eviction_never_changes_a_result(corpus, monkeypatch):
    """Two documents of capacity: every later pass of a run re-sketches."""
    records = [doc.record() for doc in corpus]
    pairs = kernels.dedup_candidate_pairs(records)
    expected = run_dedup(LinguaManga(), corpus)
    assert pairs and any(expected.predictions)

    tiny = lru_cache(maxsize=2)(shingle.document_sketch.__wrapped__)
    monkeypatch.setattr(kernels, "document_sketch", tiny)
    monkeypatch.setattr(tasks, "document_sketch", tiny)
    assert kernels.dedup_candidate_pairs(records) == pairs
    assert kernels.dedup_candidate_pairs(records[::-1]) == pairs
    batch = run_dedup(LinguaManga(), corpus)
    assert batch.predictions == expected.predictions
    assert batch.report.canonical_json() == expected.report.canonical_json()
    streamed = run_dedup(LinguaManga(), corpus, stream=True)
    assert streamed.predictions == expected.predictions
    info = tiny.cache_info()
    assert info.currsize == 2 and info.misses > 4 * N_DOCS


class TestStreamingScanIds:
    """Both scans agree pair for pair whatever the records use as ids."""

    TEXTS = [doc.text for doc in CurationCorpus(n_docs=40, seed=5)]

    @pytest.mark.parametrize("batch_size", [1, 8, 256])
    @pytest.mark.parametrize(
        "make_record",
        [
            pytest.param(lambda index, text: {"text": text}, id="no-id"),
            pytest.param(lambda index, text: text, id="bare-text"),
            pytest.param(lambda index, text: {"id": index * 7, "text": text}, id="int-id"),
            pytest.param(
                lambda index, text: {"id": f"doc\t{index}\n", "text": text}, id="str-id"
            ),
        ],
    )
    def test_external_scan_equals_kernel(self, make_record, batch_size):
        records = [make_record(index, text) for index, text in enumerate(self.TEXTS)]
        expected = kernels.dedup_candidate_pairs(records)
        assert len(expected) > 5
        streamed = list(iter_dedup_candidate_ids(iter(records), batch_size=batch_size))
        assert streamed == expected
        assert {type(side) for pair in streamed for side in pair} == {
            type(side) for pair in expected for side in pair
        }

    def test_int_ids_sort_numerically(self):
        records = [{"id": index, "text": text} for index, text in enumerate(self.TEXTS)]
        streamed = list(iter_dedup_candidate_ids(iter(records), batch_size=8))
        assert streamed == sorted(streamed)
        assert any(left < 10 <= right for left, right in streamed)

    def test_unspillable_id_is_refused(self):
        records = [{"id": (index, "x"), "text": text} for index, text in enumerate(self.TEXTS)]
        with pytest.raises(TypeError, match="str or int document ids"):
            list(iter_dedup_candidate_ids(iter(records)))

    def test_spilled_bytes_are_file_bytes(self, tmp_path):
        stats: dict = {}
        records = [{"id": f"é{index}", "text": text} for index, text in enumerate(self.TEXTS)]
        list(iter_dedup_candidate_ids(iter(records), spill_dir=tmp_path, stats=stats))
        on_disk = sum(path.stat().st_size for path in tmp_path.glob("part-*.tsv"))
        assert stats["spilled_bytes"] == on_disk > 0
