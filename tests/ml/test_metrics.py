"""Tests for repro.ml.metrics."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.metrics import accuracy, f1_score, precision_recall_f1

LABELS = st.lists(st.integers(0, 1), min_size=1, max_size=40)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        assert accuracy([1, 0], [1, 1]) == 0.5

    def test_empty_is_zero(self):
        assert accuracy([], []) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])

    def test_works_with_string_labels(self):
        assert accuracy(["a", "b"], ["a", "c"]) == 0.5


class TestPrecisionRecallF1:
    def test_known_values(self):
        # tp=2 fp=1 fn=1
        p, r, f1 = precision_recall_f1([1, 1, 1, 0], [1, 1, 0, 1])
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        p, r, f1 = precision_recall_f1([1, 1], [0, 0])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_no_actual_positives(self):
        p, _, _ = precision_recall_f1([0, 0], [1, 0])
        assert p == 0.0

    @given(LABELS)
    def test_perfect_predictions_give_perfect_f1(self, y: list[int]):
        if 1 in y:
            assert f1_score(y, y) == 1.0

    @given(LABELS, LABELS)
    def test_f1_in_unit_range(self, a: list[int], b: list[int]):
        n = min(len(a), len(b))
        assert 0.0 <= f1_score(a[:n], b[:n]) <= 1.0
