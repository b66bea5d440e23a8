"""Tests for repro.text.similarity, including metric-property checks."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.similarity import (
    TfIdfModel,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
    qgram_similarity,
)

WORDS = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")), max_size=12)


class TestLevenshtein:
    def test_known_distance(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_identity(self):
        assert levenshtein_distance("abc", "abc") == 0

    def test_empty_versus_word(self):
        assert levenshtein_distance("", "abc") == 3

    @given(WORDS, WORDS)
    def test_symmetry(self, a: str, b: str):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(WORDS, WORDS)
    def test_bounded_by_longer_length(self, a: str, b: str):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @given(WORDS, WORDS, WORDS)
    def test_triangle_inequality(self, a: str, b: str, c: str):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestBandedLevenshtein:
    @given(WORDS, WORDS)
    def test_band_is_exact_when_distance_fits(self, a: str, b: str):
        true_distance = levenshtein_distance(a, b)
        assert levenshtein_distance(a, b, max_distance=true_distance) == true_distance
        assert levenshtein_distance(a, b, max_distance=true_distance + 3) == true_distance

    @given(WORDS, WORDS)
    def test_exceeding_band_returns_sentinel(self, a: str, b: str):
        true_distance = levenshtein_distance(a, b)
        for budget in range(true_distance):
            assert levenshtein_distance(a, b, max_distance=budget) == budget + 1

    def test_length_gap_short_circuits(self):
        # |len(a) - len(b)| alone already exceeds the budget.
        assert levenshtein_distance("ab", "abcdefgh", max_distance=3) == 4

    def test_zero_budget_is_equality_check(self):
        assert levenshtein_distance("same", "same", max_distance=0) == 0
        assert levenshtein_distance("same", "sane", max_distance=0) == 1


class TestJaro:
    def test_classic_martha_example(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_winkler_boosts_shared_prefix(self):
        plain = jaro_similarity("martha", "marhta")
        boosted = jaro_winkler_similarity("martha", "marhta")
        assert boosted > plain

    def test_disjoint_strings_zero(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    @given(WORDS, WORDS)
    def test_range_and_symmetry(self, a: str, b: str):
        score = jaro_winkler_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(jaro_winkler_similarity(b, a))

    @given(WORDS)
    def test_identity_is_one(self, a: str):
        assert jaro_winkler_similarity(a, a) == 1.0


class TestSetSimilarities:
    def test_jaccard_known_value(self):
        assert jaccard_similarity("a b c", "b c d") == pytest.approx(0.5)

    def test_overlap_subset_is_one(self):
        assert overlap_coefficient("a b", "a b c d") == 1.0

    def test_empty_inputs_equal(self):
        assert jaccard_similarity("", "") == 1.0

    @given(st.lists(WORDS, max_size=6), st.lists(WORDS, max_size=6))
    def test_all_in_unit_range(self, a: list[str], b: list[str]):
        for fn in (jaccard_similarity, overlap_coefficient):
            assert 0.0 <= fn(a, b) <= 1.0


class TestMongeElkanAndQgram:
    def test_monge_elkan_tolerates_reorder(self):
        assert monge_elkan_similarity("john smith", "smith john") > 0.95

    def test_qgram_tolerates_typo(self):
        assert qgram_similarity("playstation", "playstaton") > 0.5

    @given(WORDS, WORDS)
    def test_ranges(self, a: str, b: str):
        assert 0.0 <= monge_elkan_similarity(a, b) <= 1.0
        assert 0.0 <= qgram_similarity(a, b) <= 1.0


class TestNumericSimilarity:
    def test_equal_numbers(self):
        assert numeric_similarity(5.0, 5.0) == 1.0

    def test_both_missing(self):
        assert numeric_similarity(None, None) == 1.0

    def test_one_missing(self):
        assert numeric_similarity(1.0, None) == 0.0

    def test_relative_closeness(self):
        assert numeric_similarity(90, 100) == pytest.approx(0.9)

    def test_zero_pair(self):
        assert numeric_similarity(0.0, 0.0) == 1.0


class TestTfIdf:
    CORPUS = ["stone ipa beer", "stone porter beer", "lucky otter pilsner"]

    def test_rare_token_weighs_more(self):
        model = TfIdfModel(self.CORPUS)
        assert model.idf("pilsner") > model.idf("beer")

    def test_self_similarity_is_one(self):
        model = TfIdfModel(self.CORPUS)
        assert model.similarity("stone ipa", "stone ipa") == pytest.approx(1.0)

    def test_similarity_prefers_shared_rare_tokens(self):
        model = TfIdfModel(self.CORPUS)
        assert model.similarity("stone ipa", "stone porter") < 1.0
        assert model.similarity("stone ipa", "otter pilsner") < model.similarity(
            "stone ipa", "stone porter"
        )

    def test_unseen_tokens_get_default_idf(self):
        model = TfIdfModel(self.CORPUS)
        assert model.idf("zzzunseen") >= model.idf("pilsner")

    def test_vocabulary_order_is_pinned_sorted(self):
        """Regression: idf ties used to surface in corpus/hash order.

        The vocabulary must come out in sorted token order regardless of
        document order, so every derived array (and every float summed in
        vocabulary order) is identical across platforms and processes.
        """
        model = TfIdfModel(self.CORPUS)
        assert model.vocabulary() == (
            "beer", "ipa", "lucky", "otter", "pilsner", "porter", "stone"
        )
        reversed_model = TfIdfModel(list(reversed(self.CORPUS)))
        assert reversed_model.vocabulary() == model.vocabulary()
        assert [reversed_model.idf(t) for t in model.vocabulary()] == [
            model.idf(t) for t in model.vocabulary()
        ]

    def test_vector_is_memoized_and_copies(self):
        """Regression: ``vector`` retokenized + reweighed on every call."""
        model = TfIdfModel(self.CORPUS)
        first = model._vector("stone ipa beer")
        assert model._vector("stone ipa beer") is first  # cached, not rebuilt
        public = model.vector("stone ipa beer")
        assert public == first
        public["stone"] = -1.0  # mutating the copy must not poison the cache
        assert model.vector("stone ipa beer") == first
