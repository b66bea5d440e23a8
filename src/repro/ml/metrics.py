"""Evaluation metrics for the reproduction's experiments.

Every number reported in the paper's Table 1 is an F1 score and every number
in section 4.3 is an accuracy, so these two (plus their building blocks) are
the core of the benchmark harness.
"""

from __future__ import annotations

from typing import Hashable, Sequence

__all__ = [
    "accuracy",
    "precision_recall_f1",
    "f1_score",
]


def accuracy(y_true: Sequence[Hashable], y_pred: Sequence[Hashable]) -> float:
    """Fraction of exactly-matching predictions."""
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred must have the same length")
    if not y_true:
        return 0.0
    return sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)


def precision_recall_f1(
    y_true: Sequence[int], y_pred: Sequence[int]
) -> tuple[float, float, float]:
    """Binary precision, recall and F1 with respect to the label 1.

    Follows the usual convention: an undefined ratio (no predicted or no
    actual positives) is reported as 0.0.
    """
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred must have the same length")
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != 1 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p != 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_score(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """Binary F1 (harmonic mean of precision and recall)."""
    return precision_recall_f1(y_true, y_pred)[2]
