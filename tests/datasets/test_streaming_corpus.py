"""Tests for the index-addressable streaming ER corpus."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.datasets import StreamingERCorpus


class TestDeterminism:
    def test_pair_is_pure_function_of_index(self):
        corpus = StreamingERCorpus(100, seed=7)
        again = StreamingERCorpus(100, seed=7)
        for index in (0, 1, 50, 99):
            assert corpus.pair(index) == again.pair(index)

    def test_iteration_matches_random_access(self):
        corpus = StreamingERCorpus(20, seed=3)
        assert list(corpus) == [corpus.pair(i) for i in range(20)]

    def test_seed_and_name_change_content(self):
        base = StreamingERCorpus(10, seed=7)
        assert list(StreamingERCorpus(10, seed=8)) != list(base)

    def test_reiteration_is_byte_identical(self):
        corpus = StreamingERCorpus(25, seed=11)
        assert list(corpus.inputs()) == list(corpus.inputs())


class TestShape:
    def test_len_and_bounds(self):
        corpus = StreamingERCorpus(5)
        assert len(corpus) == 5
        with pytest.raises(IndexError):
            corpus.pair(5)
        with pytest.raises(IndexError):
            corpus.pair(-1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            StreamingERCorpus(-1)

    def test_match_fraction_roughly_holds(self):
        corpus = StreamingERCorpus(400, seed=5)
        rate = sum(corpus.labels()) / 400
        assert 0.3 < rate < 0.5

    def test_labels_align_with_pairs(self):
        corpus = StreamingERCorpus(30, seed=9)
        assert list(corpus.labels()) == [corpus.pair(i).label for i in range(30)]

    def test_fingerprint_identifies_corpus(self):
        a = StreamingERCorpus(100, seed=7)
        assert a.fingerprint == StreamingERCorpus(100, seed=7).fingerprint
        assert a.fingerprint != StreamingERCorpus(101, seed=7).fingerprint
        assert a.fingerprint != StreamingERCorpus(100, seed=8).fingerprint


class TestPromptUniqueness:
    def test_lots_are_corpus_unique(self):
        # The streaming executor's worker-kill byte-identity relies on
        # rendered prompts being unique across the corpus; the lot
        # attribute is what enforces that.
        corpus = StreamingERCorpus(200, seed=7)
        lots = set()
        for pair in corpus:
            lots.add((pair.left["lot"], pair.right["lot"]))
        assert len(lots) == 200

    def test_negative_pairs_use_distinct_lot(self):
        corpus = StreamingERCorpus(100, seed=7)
        for pair in corpus:
            if pair.label == 0:
                assert pair.left["lot"] != pair.right["lot"]
            else:
                assert pair.left["lot"] == pair.right["lot"]


class TestExamples:
    def test_examples_are_balanced(self):
        corpus = StreamingERCorpus(600, seed=7)
        examples = corpus.examples()
        assert len(examples) == 4
        labels = [label for _, label in examples]
        assert labels == [True, False, True, False]

    def test_examples_bounded_scan(self):
        # examples() must not materialize the corpus: it looks at the
        # first 512 pairs of a million and stops there.
        corpus = StreamingERCorpus(1_000_000, seed=7)
        pair = corpus.pair
        seen: list[int] = []
        with mock.patch.object(
            StreamingERCorpus, "pair", lambda self, i: seen.append(i) or pair(i)
        ):
            examples = corpus.examples()
        assert 0 < len(examples) <= 4
        assert max(seen) < 512
