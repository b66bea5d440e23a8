"""L2-regularised multinomial logistic regression, pure numpy.

The distillation router's default student (``student="logistic"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

__all__ = ["SoftmaxRegression"]


@dataclass
class SoftmaxRegression:
    """Multinomial logistic regression over arbitrary hashable labels."""

    lr: float = 0.5
    epochs: int = 300
    l2: float = 1e-3
    classes_: list[Hashable] = field(default_factory=list)
    weights: np.ndarray | None = field(default=None, repr=False)
    bias: np.ndarray | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: Sequence[Hashable]) -> "SoftmaxRegression":
        """Fit on matrix ``X`` and labels ``y``; returns self."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != len(y):
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_ = sorted(set(y), key=repr)
        index = {label: i for i, label in enumerate(self.classes_)}
        n, d = X.shape
        k = len(self.classes_)
        onehot = np.zeros((n, k), dtype=np.float64)
        for row, label in enumerate(y):
            onehot[row, index[label]] = 1.0
        self.weights = np.zeros((d, k), dtype=np.float64)
        self.bias = np.zeros(k, dtype=np.float64)
        previous_loss = np.inf
        for _ in range(self.epochs):
            logits = X @ self.weights + self.bias
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probs = exp / exp.sum(axis=1, keepdims=True)
            error = probs - onehot
            grad_w = X.T @ error / n + self.l2 * self.weights
            grad_b = error.mean(axis=0)
            self.weights -= self.lr * grad_w
            self.bias -= self.lr * grad_b
            loss = float(
                -np.mean(np.log((probs * onehot).sum(axis=1) + 1e-12))
                + 0.5 * self.l2 * float((self.weights**2).sum())
            )
            if previous_loss - loss < 1e-7:
                break
            previous_loss = loss
        return self

    def _check_fitted(self) -> None:
        if self.weights is None:
            raise RuntimeError("model is not fitted; call fit() first")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """``(n, k)`` class-probability matrix, columns ordered as ``classes_``."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        logits = X @ self.weights + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, X: np.ndarray) -> list[Hashable]:
        """Most probable class per row."""
        probs = self.predict_proba(X)
        return [self.classes_[i] for i in probs.argmax(axis=1)]

    def predict_with_confidence(self, X: np.ndarray) -> list[tuple[Hashable, float]]:
        """``(label, probability)`` per row — the simulator's takeover signal."""
        probs = self.predict_proba(X)
        winners = probs.argmax(axis=1)
        return [(self.classes_[i], float(probs[row, i])) for row, i in enumerate(winners)]
