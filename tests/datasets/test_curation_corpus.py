"""Determinism and ground-truth structure of the synthetic curation corpus.

Every document is a pure function of ``(seed, name, index)``: the suite
checks that random access, iteration order and construction order cannot
change a single byte of any document, that the planted ground truth
(duplicate clusters, quality tiers, contamination splices) is internally
consistent, and that the paired eval set is disjoint from corpus prose at
the vocabulary level the decontamination scan relies on.
"""

from __future__ import annotations

import re

import pytest

from repro.datasets.curation import (
    CurationCorpus,
    CurationEvalSet,
    curation_vocabulary,
)


@pytest.fixture(scope="module")
def corpus() -> CurationCorpus:
    return CurationCorpus(n_docs=160, seed=7)


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, corpus):
        rebuilt = CurationCorpus(n_docs=160, seed=7)
        assert [d.record() for d in rebuilt] == [d.record() for d in corpus]

    def test_access_order_does_not_matter(self, corpus):
        fresh = CurationCorpus(n_docs=160, seed=7)
        # Touch documents in reverse and shuffled-ish order first.
        backwards = [fresh.doc(i).text for i in reversed(range(len(fresh)))]
        assert backwards[::-1] == [d.text for d in corpus]
        assert fresh.doc(31).text == corpus.doc(31).text

    def test_prefix_stability(self, corpus):
        """A longer corpus extends, never rewrites, a shorter one."""
        longer = CurationCorpus(n_docs=220, seed=7)
        assert [longer.doc(i).text for i in range(160)] == [d.text for d in corpus]

    def test_seeds_diverge(self, corpus):
        other = CurationCorpus(n_docs=160, seed=11)
        assert [d.text for d in other] != [d.text for d in corpus]

    def test_examples_deterministic(self, corpus):
        assert corpus.dedup_examples(4) == corpus.dedup_examples(4)
        assert corpus.quality_examples(4) == corpus.quality_examples(4)
        assert corpus.decontamination_examples(4) == corpus.decontamination_examples(4)

    def test_eval_set_deterministic(self, corpus):
        again = CurationCorpus(n_docs=160, seed=7).eval_set
        assert list(again.items()) == list(corpus.eval_set.items())


class TestGroundTruth:
    def test_duplicates_reference_earlier_canonicals(self, corpus):
        for doc in corpus:
            if doc.is_duplicate:
                canonical = corpus.doc(doc.cluster)
                assert doc.cluster < doc.index
                assert not canonical.is_duplicate
                assert canonical.cluster == canonical.index
            else:
                assert doc.cluster == doc.index

    def test_dup_floor_has_no_duplicates(self, corpus):
        for index in range(corpus.dup_floor):
            assert not corpus.doc(index).is_duplicate

    def test_cluster_shares_quality_label(self, corpus):
        for doc in corpus:
            assert doc.keep == (doc.quality >= 0.5)
            if doc.is_duplicate:
                assert doc.keep == corpus.doc(doc.cluster).keep

    def test_contamination_matches_eval_index(self, corpus):
        eval_set = corpus.eval_set
        planted = 0
        for doc in corpus:
            if doc.contaminated:
                planted += 1
                assert 0 <= doc.eval_index < len(eval_set)
            else:
                assert doc.eval_index == -1
        assert planted > 0

    def test_label_populations_present(self, corpus):
        docs = corpus.materialize()
        assert any(d.is_duplicate for d in docs)
        assert any(not d.is_duplicate for d in docs)
        assert any(d.keep for d in docs)
        assert any(not d.keep for d in docs)

    def test_records_leak_no_labels(self, corpus):
        assert set(corpus.doc(0).record()) == {"id", "text"}

    def test_inputs_match_records(self, corpus):
        assert list(corpus.inputs()) == [d.record() for d in corpus]


class TestEvalSet:
    def test_items_drawn_from_curation_vocabulary(self):
        """Alphabetic eval-item words are in-vocabulary (never gibberish).

        The quality skill flags long out-of-vocabulary words as junk; a
        contamination splice must not trip that detector, so eval items
        may only use legitimate domain words (digits/ids aside).
        """
        vocabulary = curation_vocabulary()
        eval_set = CurationEvalSet(size=16, seed=3, name="probe-eval")
        for item in eval_set.items():
            words = re.findall(r"[^\W\d_]+", item.lower())
            long_words = [word for word in words if len(word) >= 3]
            assert long_words, "empty eval item"
            assert all(word in vocabulary for word in long_words)

    def test_fingerprint_tracks_identity(self):
        a = CurationEvalSet(size=16, seed=3, name="x")
        b = CurationEvalSet(size=16, seed=4, name="x")
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == CurationEvalSet(size=16, seed=3, name="x").fingerprint


def test_validation_rejects_bad_fractions():
    with pytest.raises(ValueError):
        CurationCorpus(n_docs=-1)
