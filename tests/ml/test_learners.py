"""Tests for the learners: logistic, softmax, NB, tree, forest, kNN."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import seeded_rng
from repro.ml.forest import RandomForest
from repro.ml.logistic import LogisticRegression, SoftmaxRegression
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.tree import DecisionTree


def linearly_separable(n: int = 120, seed: int = 0):
    rng = seeded_rng(seed)
    X, y = [], []
    for _ in range(n):
        x0, x1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        X.append([x0, x1])
        y.append(1 if x0 + x1 > 0 else 0)
    return np.array(X), y


def xor_data(n: int = 200, seed: int = 1):
    rng = seeded_rng(seed)
    X, y = [], []
    for _ in range(n):
        x0, x1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        X.append([x0, x1])
        y.append(1 if (x0 > 0) != (x1 > 0) else 0)
    return np.array(X), y


class TestLogisticRegression:
    def test_learns_separable_data(self):
        X, y = linearly_separable()
        model = LogisticRegression(epochs=500, lr=1.0).fit(X, y)
        assert (model.predict(X) == np.array(y)).mean() > 0.95

    def test_probabilities_in_range(self):
        X, y = linearly_separable()
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((0, 2)), [])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), [0, 1])

    def test_threshold_changes_predictions(self):
        X, y = linearly_separable()
        model = LogisticRegression(epochs=300).fit(X, y)
        strict = model.predict(X, threshold=0.95).sum()
        lenient = model.predict(X, threshold=0.05).sum()
        assert lenient >= strict


class TestSoftmaxRegression:
    def test_learns_three_classes(self):
        rng = seeded_rng(5)
        X, y = [], []
        centers = {(2, 0): "a", (-2, 0): "b", (0, 2): "c"}
        for (cx, cy), label in centers.items():
            for _ in range(40):
                X.append([cx + rng.gauss(0, 0.3), cy + rng.gauss(0, 0.3)])
                y.append(label)
        model = SoftmaxRegression(epochs=400, lr=1.0).fit(np.array(X), y)
        predictions = model.predict(np.array(X))
        assert sum(p == t for p, t in zip(predictions, y)) / len(y) > 0.95

    def test_probabilities_sum_to_one(self):
        X, y = linearly_separable(60)
        model = SoftmaxRegression(epochs=100).fit(X, y)
        probs = model.predict_proba(X)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_confidence_matches_argmax(self):
        X, y = linearly_separable(60)
        model = SoftmaxRegression(epochs=100).fit(X, y)
        for (label, confidence), row in zip(
            model.predict_with_confidence(X[:5]), model.predict_proba(X[:5])
        ):
            assert confidence == pytest.approx(row.max())
            assert label == model.classes_[row.argmax()]

    def test_classes_sorted_deterministically(self):
        X, y = linearly_separable(60)
        model = SoftmaxRegression(epochs=10).fit(X, y)
        assert model.classes_ == sorted(set(y), key=repr)


class TestNaiveBayes:
    def test_learns_topic_separation(self):
        texts = ["beer ale stout hops"] * 10 + ["guitar drums song music"] * 10
        labels = ["drink"] * 10 + ["music"] * 10
        model = MultinomialNaiveBayes().fit(texts, labels)
        assert model.predict_one("hoppy ale with stout notes") == "drink"
        assert model.predict_one("a song with loud drums") == "music"

    def test_partial_fit_updates(self):
        model = MultinomialNaiveBayes()
        model.partial_fit("alpha beta", "x")
        model.partial_fit("gamma delta", "y")
        assert model.predict_one("alpha") == "x"

    def test_confidence_in_unit_range(self):
        model = MultinomialNaiveBayes().fit(["a b", "c d"], ["x", "y"])
        _, confidence = model.predict_with_confidence("a b")
        assert 0.0 < confidence <= 1.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MultinomialNaiveBayes().predict_one("hello")

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit([], [])


class TestDecisionTree:
    def test_solves_xor(self):
        X, y = xor_data()
        tree = DecisionTree(max_depth=4).fit(X, y)
        assert (tree.predict(X) == np.array(y)).mean() > 0.9

    def test_depth_respects_limit(self):
        X, y = xor_data()
        tree = DecisionTree(max_depth=3).fit(X, y)
        assert tree.depth() <= 3

    def test_pure_leaf_short_circuits(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTree().fit(X, [1, 1, 1])
        assert tree.depth() == 0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((1, 1)))


class TestRandomForest:
    def test_solves_xor_better_than_chance(self):
        X, y = xor_data()
        forest = RandomForest(n_trees=15, max_depth=5, seed=2).fit(X, y)
        assert (forest.predict(X) == np.array(y)).mean() > 0.9

    def test_deterministic_given_seed(self):
        X, y = xor_data(80)
        a = RandomForest(n_trees=5, seed=7).fit(X, y).predict_proba(X)
        b = RandomForest(n_trees=5, seed=7).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_probabilities_in_range(self):
        X, y = xor_data(80)
        probs = RandomForest(n_trees=5, seed=0).fit(X, y).predict_proba(X)
        assert (probs >= 0).all() and (probs <= 1).all()

