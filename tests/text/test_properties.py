"""Property-based tests for the text substrate.

Hypothesis drives the normaliser, the similarity measures and the
tokenizers across arbitrary inputs, checking the algebraic properties the
matchers rely on: idempotency, symmetry, identity, unit-interval bounds and
span round-trips.  The module is skipped wholesale where hypothesis is not
installed (it is an optional dev dependency).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.text.normalize import (  # noqa: E402
    extract_numbers,
    normalize_text,
    normalize_whitespace,
    strip_accents,
)
from repro.text.similarity import (  # noqa: E402
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    qgram_similarity,
)
from repro.text.tokenize import (  # noqa: E402
    char_ngrams,
    tokens_with_spans,
    word_tokenize,
)

# Mixed scripts and accents, bounded so the quadratic measures stay fast.
TEXT = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",), max_codepoint=0x2FFF
    ),
    max_size=40,
)
SHORT_TEXT = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=16,
)

SIMILARITIES = [
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    qgram_similarity,
    monge_elkan_similarity,
]


class TestNormalizeProperties:
    @given(TEXT)
    @settings(max_examples=200)
    def test_normalize_text_is_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(TEXT)
    def test_normalize_text_output_shape(self, text):
        normalized = normalize_text(text)
        assert normalized == normalized.strip()
        assert "  " not in normalized
        assert normalized == normalized.lower()

    @given(TEXT)
    def test_strip_accents_is_idempotent(self, text):
        once = strip_accents(text)
        assert strip_accents(once) == once

    @given(TEXT)
    def test_normalize_whitespace_is_idempotent(self, text):
        once = normalize_whitespace(text)
        assert normalize_whitespace(once) == once

    @given(TEXT)
    def test_extract_numbers_returns_floats(self, text):
        numbers = extract_numbers(text)
        assert all(isinstance(n, float) for n in numbers)


class TestSimilarityProperties:
    @pytest.mark.parametrize("measure", SIMILARITIES)
    @given(a=SHORT_TEXT, b=SHORT_TEXT)
    @settings(max_examples=60)
    def test_symmetry(self, measure, a, b):
        assert measure(a, b) == pytest.approx(measure(b, a), abs=1e-12)

    @pytest.mark.parametrize("measure", SIMILARITIES)
    @given(a=SHORT_TEXT, b=SHORT_TEXT)
    @settings(max_examples=60)
    def test_unit_interval(self, measure, a, b):
        assert 0.0 <= measure(a, b) <= 1.0

    @pytest.mark.parametrize("measure", SIMILARITIES)
    @given(a=SHORT_TEXT)
    @settings(max_examples=60)
    def test_identity(self, measure, a):
        assert measure(a, a) == pytest.approx(1.0)

    @given(a=SHORT_TEXT, b=SHORT_TEXT)
    @settings(max_examples=100)
    def test_levenshtein_is_a_metric(self, a, b):
        distance = levenshtein_distance(a, b)
        assert distance == levenshtein_distance(b, a)
        assert (distance == 0) == (a == b)
        assert distance <= max(len(a), len(b))

    @given(a=SHORT_TEXT, b=SHORT_TEXT, c=SHORT_TEXT)
    @settings(max_examples=60)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )


class TestTokenizeProperties:
    @given(TEXT)
    def test_spans_round_trip_to_source(self, text):
        for token in tokens_with_spans(text):
            assert text[token.start : token.end] == token.text

    @given(TEXT)
    def test_spans_agree_with_word_tokenize(self, text):
        assert [t.text for t in tokens_with_spans(text)] == word_tokenize(text)

    @given(TEXT)
    def test_spans_are_ordered_and_disjoint(self, text):
        tokens = tokens_with_spans(text)
        for left, right in zip(tokens, tokens[1:]):
            assert left.end <= right.start

    @given(SHORT_TEXT, st.integers(1, 4))
    def test_char_ngrams_reconstruct_padded_text(self, text, n):
        grams = char_ngrams(text, n)
        padded = "#" + text + "#"
        if len(padded) < n:
            assert grams == [padded]
        else:
            assert grams[0] + "".join(g[-1] for g in grams[1:]) == padded
