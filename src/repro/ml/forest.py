"""Bagged random forest over :class:`repro.ml.tree.DecisionTree`.

The Magellan baseline in the paper's Table 1 is a classical feature-based
matcher; a random forest over similarity features is the canonical choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._util import seeded_rng
from repro.ml.tree import DecisionTree

__all__ = ["RandomForest"]


@dataclass
class RandomForest:
    """Random forest: bootstrap-sampled trees with feature subsampling."""

    n_trees: int = 25
    max_depth: int = 8
    max_features: float = 0.6
    seed: int = 0
    _trees: list[DecisionTree] = field(default_factory=list, repr=False)

    def fit(self, X: np.ndarray, y: Sequence[int]) -> "RandomForest":
        """Fit on matrix ``X`` and 0/1 labels ``y``; returns self."""
        X = np.asarray(X, dtype=np.float64)
        y_arr = np.asarray(y, dtype=np.int64)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if X.shape[0] != y_arr.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        rng = seeded_rng(self.seed)
        n = X.shape[0]
        self._trees = []
        for t in range(self.n_trees):
            indices = [rng.randrange(n) for _ in range(n)]
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_leaf=2,
                max_features=self.max_features,
                seed=rng.randrange(1 << 30),
            )
            tree.fit(X[indices], y_arr[indices])
            self._trees.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf probabilities."""
        if not self._trees:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        return np.mean([tree.predict_proba(X) for tree in self._trees], axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """0/1 predictions by averaged probability."""
        return (self.predict_proba(X) >= 0.5).astype(int)
