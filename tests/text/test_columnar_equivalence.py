"""Scalar ≡ columnar equivalence: the vectorized batch against its oracle.

Every ``*_many`` kernel in :mod:`repro.text.similarity` is property-tested
against the scalar implementation it replaces.  Set metrics and Levenshtein
distances must match *exactly* (they are integer-derived); the float
metrics must match within ``1e-12`` — though most of them are engineered to
accumulate in the scalar's addition order and are asserted bit-equal by the
feature-extractor tests.  Inputs include mixed-script unicode, empty
strings and ``max_distance`` band edges (0, exact distance, distance ± 1,
per-pair bands).
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.text.similarity import (  # noqa: E402
    TfIdfModel,
    cosine_similarity,
    cosine_similarity_many,
    dice_similarity,
    dice_similarity_many,
    jaccard_similarity,
    jaccard_similarity_many,
    jaro_similarity,
    jaro_similarity_many,
    jaro_winkler_similarity,
    jaro_winkler_similarity_many,
    levenshtein_distance,
    levenshtein_distance_many,
    levenshtein_similarity,
    levenshtein_similarity_many,
    monge_elkan_similarity,
    monge_elkan_similarity_many,
    numeric_similarity,
    numeric_similarity_many,
    overlap_coefficient,
    overlap_coefficient_many,
    qgram_similarity,
    qgram_similarity_many,
)

MAX_EXAMPLES = 60

# Mixed scripts and accents; bounded so quadratic oracles stay fast.
TEXT = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",), max_codepoint=0x2FFF
    ),
    max_size=24,
)
PAIRS = st.lists(st.tuples(TEXT, TEXT), min_size=0, max_size=12)

ATOL = 1e-12


def _sides(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    return a, b


class TestLevenshteinEquivalence:
    @given(PAIRS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_unbanded_exact(self, pairs):
        a, b = _sides(pairs)
        batch = levenshtein_distance_many(a, b)
        oracle = [levenshtein_distance(x, y) for x, y in pairs]
        assert batch.tolist() == oracle

    @given(PAIRS, st.integers(min_value=0, max_value=6))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_uniform_band_exact(self, pairs, band):
        a, b = _sides(pairs)
        batch = levenshtein_distance_many(a, b, max_distance=band)
        oracle = [levenshtein_distance(x, y, max_distance=band) for x, y in pairs]
        assert batch.tolist() == oracle

    @given(st.lists(st.tuples(TEXT, TEXT, st.integers(0, 8)), max_size=12))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_per_pair_band_exact(self, rows):
        a = [r[0] for r in rows]
        b = [r[1] for r in rows]
        bands = np.array([r[2] for r in rows], dtype=np.int64)
        batch = levenshtein_distance_many(a, b, max_distance=bands)
        oracle = [
            levenshtein_distance(x, y, max_distance=int(d))
            for x, y, d in rows
        ]
        assert batch.tolist() == oracle

    @given(TEXT, TEXT)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_band_edges(self, a, b):
        """Bands at 0, D-1, D and D+1 all honour the sentinel contract."""
        exact = levenshtein_distance(a, b)
        for band in sorted({0, max(0, exact - 1), exact, exact + 1}):
            got = levenshtein_distance_many([a], [b], max_distance=band)[0]
            assert got == levenshtein_distance(a, b, max_distance=band)
            assert got == min(exact, band + 1)

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            levenshtein_distance_many(["a"], ["b"], max_distance=-1)

    @given(PAIRS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_similarity(self, pairs):
        a, b = _sides(pairs)
        batch = levenshtein_similarity_many(a, b)
        oracle = [levenshtein_similarity(x, y) for x, y in pairs]
        assert np.allclose(batch, oracle, rtol=0, atol=ATOL)
        assert batch.tolist() == oracle  # integer-derived: exact


class TestFloatMetricEquivalence:
    CASES = [
        (jaro_similarity_many, jaro_similarity),
        (jaro_winkler_similarity_many, jaro_winkler_similarity),
        (monge_elkan_similarity_many, monge_elkan_similarity),
        (cosine_similarity_many, cosine_similarity),
    ]

    @given(PAIRS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batch_matches_oracle(self, pairs):
        a, b = _sides(pairs)
        for batch_fn, scalar_fn in self.CASES:
            batch = batch_fn(a, b)
            oracle = [scalar_fn(x, y) for x, y in pairs]
            assert np.allclose(batch, oracle, rtol=0, atol=ATOL), batch_fn.__name__

    @given(TEXT)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_identity_rows(self, text):
        assert jaro_similarity_many([text], [text])[0] == jaro_similarity(text, text)
        assert (
            jaro_winkler_similarity_many([text], [text])[0]
            == jaro_winkler_similarity(text, text)
        )


class TestSetMetricEquivalence:
    CASES = [
        (jaccard_similarity_many, jaccard_similarity),
        (overlap_coefficient_many, overlap_coefficient),
        (dice_similarity_many, dice_similarity),
    ]

    @given(PAIRS)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_string_inputs_exact(self, pairs):
        a, b = _sides(pairs)
        for batch_fn, scalar_fn in self.CASES:
            batch = batch_fn(a, b)
            oracle = [scalar_fn(x, y) for x, y in pairs]
            assert batch.tolist() == oracle, batch_fn.__name__

    @given(
        st.lists(
            st.tuples(
                st.lists(st.text(max_size=6), max_size=6),
                st.lists(st.text(max_size=6), max_size=6),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_token_list_inputs_exact(self, pairs):
        a, b = _sides(pairs)
        for batch_fn, scalar_fn in self.CASES:
            batch = batch_fn(a, b)
            oracle = [scalar_fn(x, y) for x, y in pairs]
            assert batch.tolist() == oracle, batch_fn.__name__

    @given(PAIRS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_qgram_exact(self, pairs, q):
        a, b = _sides(pairs)
        batch = qgram_similarity_many(a, b, q=q)
        oracle = [qgram_similarity(x, y, q=q) for x, y in pairs]
        assert batch.tolist() == oracle


class TestNumericEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
                st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batch_matches_oracle(self, pairs):
        a, b = _sides(pairs)
        batch = numeric_similarity_many(a, b)
        oracle = [numeric_similarity(x, y) for x, y in pairs]
        assert batch.tolist() == oracle  # same expression order: exact


class TestTfIdfEquivalence:
    @given(
        st.lists(TEXT, min_size=1, max_size=10),
        st.lists(st.tuples(TEXT, TEXT), min_size=0, max_size=8),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_similarity_many(self, corpus, pairs):
        model = TfIdfModel(corpus)
        a, b = _sides(pairs)
        batch = model.similarity_many(a, b)
        oracle = [model.similarity(x, y) for x, y in pairs]
        assert np.allclose(batch, oracle, rtol=0, atol=ATOL)
