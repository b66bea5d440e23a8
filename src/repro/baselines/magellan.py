"""Magellan-style baseline: similarity features + random forest.

Stands in for the Magellan matcher of paper Table 1 (see DESIGN.md's
substitution table).  Classical regime: train a feature-based classifier on
*raw* attribute similarities over hundreds/thousands of labelled pairs.  It
has no world knowledge — no abbreviation/unit normalisation — which is
exactly why it trails the LLM-based methods on dirty text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.entity_resolution import ERDataset, RecordPair
from repro.ml.features import PairFeatureExtractor
from repro.ml.forest import RandomForest
from repro.ml.metrics import f1_score

__all__ = ["MagellanMatcher", "evaluate_magellan"]


@dataclass
class MagellanMatcher:
    """Random forest over classic record-pair similarity features."""

    n_trees: int = 30
    max_depth: int = 10
    seed: int = 0
    _extractor: PairFeatureExtractor | None = field(default=None, repr=False)
    _model: RandomForest | None = field(default=None, repr=False)

    def fit(self, attributes: list[str], pairs: list[RecordPair]) -> "MagellanMatcher":
        """Train on labelled pairs; returns self."""
        if not pairs:
            raise ValueError("cannot fit on an empty pair set")
        # normalize=False: the classical matcher sees raw strings; the
        # metric menu is the classical word/edit family (no typo-robust
        # qgram/monge-elkan, which model pretrained-LM robustness).
        self._extractor = PairFeatureExtractor(
            attributes,
            normalize=False,
            metrics=("jaccard", "jaro_winkler", "levenshtein", "overlap",
                     "numeric", "both_present"),
        )
        X = self._extractor.transform([(p.left, p.right) for p in pairs])
        y = [p.label for p in pairs]
        self._model = RandomForest(
            n_trees=self.n_trees, max_depth=self.max_depth, seed=self.seed
        ).fit(X, y)
        return self

    def predict(self, pairs: list[RecordPair]) -> list[int]:
        """0/1 match predictions."""
        if self._model is None or self._extractor is None:
            raise RuntimeError("matcher is not fitted; call fit() first")
        X = self._extractor.transform([(p.left, p.right) for p in pairs])
        return list(self._model.predict(X))


def evaluate_magellan(dataset: ERDataset, seed: int = 0) -> float:
    """Train on train+valid, report test F1 (the Table 1 protocol)."""
    matcher = MagellanMatcher(seed=seed)
    matcher.fit(dataset.attributes, dataset.train + dataset.valid)
    predictions = matcher.predict(dataset.test)
    return f1_score([p.label for p in dataset.test], predictions)
