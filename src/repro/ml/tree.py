"""CART-style decision tree classifier (gini impurity), pure numpy.

Building block for the Magellan-style random forest baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro._util import seeded_rng

__all__ = ["DecisionTree"]


class _Nodes(NamedTuple):
    """A fitted tree as parallel node arrays, in preorder (root first).

    A leaf splits on feature 0 at any threshold and is both its own
    children, so a descent may take ``depth`` steps from every row.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray  # P(y=1)
    depth: int


def _gini(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    p = float(y.mean())
    return 2.0 * p * (1.0 - p)


@dataclass
class DecisionTree:
    """Binary classification tree with depth / leaf-size / feature-sampling knobs.

    ``max_features`` below 1.0 samples a random feature subset per split,
    which is what makes a bagged ensemble of these trees a random forest.
    """

    max_depth: int = 8
    min_leaf: int = 2
    max_features: float = 1.0
    seed: int = 0
    _nodes: _Nodes | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: Sequence[int]) -> "DecisionTree":
        """Fit on matrix ``X`` and 0/1 labels ``y``; returns self."""
        X = np.asarray(X, dtype=np.float64)
        y_arr = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y_arr.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.isin(y_arr, (0.0, 1.0)).all():
            raise ValueError("y must hold 0/1 labels")
        rng = seeded_rng(self.seed)
        # feature, threshold, left, right, prediction, depth per node
        nodes: list[list] = [[], [], [], [], [], []]
        self._grow(X, y_arr, 0, rng, nodes)
        feature, threshold, left, right, prediction, depth = nodes
        self._nodes = _Nodes(
            np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array(prediction, dtype=np.float64), max(depth),
        )  # fmt: skip
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng, nodes: list) -> int:
        """Append the subtree over ``X`` / ``y`` to ``nodes``; returns its root."""
        index = len(nodes[0])
        for column, value in zip(
            nodes, (0, 0.0, index, index, float(y.mean()) if y.size else 0.5, depth)
        ):
            column.append(value)
        split = self._best_split(X, y, depth, rng)
        if split is None:
            return index
        feature, threshold = split
        mask = X[:, feature] <= threshold
        nodes[0][index], nodes[1][index] = feature, threshold
        nodes[2][index] = self._grow(X[mask], y[mask], depth + 1, rng, nodes)
        nodes[3][index] = self._grow(X[~mask], y[~mask], depth + 1, rng, nodes)
        return index

    def _best_split(self, X: np.ndarray, y: np.ndarray, depth: int, rng):
        """The ``(feature, threshold)`` of the largest gini gain, or None.

        All candidate columns are sorted at once.  The thresholds are those
        one ``np.unique`` per column gave: the midpoints of consecutive
        distinct values, at most 16 per column.  Each threshold's side
        sizes are read off the sorted columns and its label counts are
        counted among the rarer label's values, and every (column,
        threshold) is scored in one pass.  The gains are the arithmetic of
        one mask and two ``_gini`` calls per threshold, in the same order,
        so they are bit-equal (a mean of 0/1 labels is exactly
        ``count / n``), and the first candidate more than ``1e-12`` above
        the best so far wins.
        """
        n = y.size
        if depth >= self.max_depth or n < 2 * self.min_leaf or _gini(y) == 0.0:
            return None
        n_features = X.shape[1]
        k = max(1, int(round(self.max_features * n_features)))
        candidates = (
            list(range(n_features))
            if k >= n_features
            else sorted(rng.sample(range(n_features), k))
        )
        columns = X[:, candidates].T
        ranked = np.sort(columns, axis=1)
        # The runs of equal values, row by row: where each starts and ends
        # (NaNs sort last and are one run, as ``np.unique`` has them).
        nan = np.isnan(ranked)
        starts = np.ones(ranked.shape, dtype=bool)
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
        starts[:, 1:] &= ~nan[:, :-1]
        row, start = np.nonzero(starts)
        last = np.append(row[1:] != row[:-1], True)
        end = np.append(start[1:], n)
        end[last] = n
        # A threshold per pair of consecutive runs of one row...
        pair = np.flatnonzero(~last)
        counts = np.bincount(row[pair], minlength=len(candidates))
        wide = np.flatnonzero(counts > 16)
        if wide.size:  # ...16 of them, spread as ``np.linspace`` spreads them
            first = np.cumsum(counts) - counts
            keep = np.repeat(counts <= 16, counts)
            keep[np.linspace(0, counts[wide] - 1, 16).astype(int) + first[wide]] = True
            pair = pair[keep]
        at = row[pair]
        low, high = ranked[at, start[pair]], ranked[at, start[pair + 1]]
        thresholds = (low + high) / 2.0
        # ``column <= threshold`` counts: a midpoint lies between its runs
        # unless the sum overflowed to an infinity; nothing is <= NaN.
        n_left = np.select(
            [thresholds < low, thresholds < high, thresholds == high, thresholds > high],
            [0, end[pair], end[pair + 1], n - nan.sum(axis=1)[at]],
            0,
        )
        n_right = n - n_left
        ones = int(y.sum())
        rare = 1.0 if 2 * ones <= n else 0.0
        rare_left = (columns[:, y == rare][at] <= thresholds[:, None]).sum(axis=1)
        ones_left = rare_left if rare else n_left - rare_left
        # an empty side's gini is 0.0, as ``_gini`` of nothing is
        p_left = np.divide(ones_left, n_left, out=np.zeros(pair.size), where=n_left > 0)
        p_right = np.divide(ones - ones_left, n_right, out=np.zeros(pair.size), where=n_right > 0)
        gains = _gini(y) - (
            n_left / n * (2.0 * p_left * (1.0 - p_left))
            + n_right / n * (2.0 * p_right * (1.0 - p_right))
        )
        allowed = np.flatnonzero((n_left >= self.min_leaf) & (n_right >= self.min_leaf))
        best_gain = 0.0
        best: tuple[int, float] | None = None
        for index, gain in zip(allowed.tolist(), gains[allowed].tolist()):
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (candidates[at[index]], float(thresholds[index]))
        return best

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1) per row: every row descends one level per step."""
        if self._nodes is None:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        feature, threshold, left, right, prediction, depth = self._nodes
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(depth):
            node = np.where(
                X[rows, feature[node]] <= threshold[node], left[node], right[node]
            )
        return prediction[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """0/1 predictions."""
        return (self.predict_proba(X) >= 0.5).astype(int)

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self._nodes is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._nodes.depth
