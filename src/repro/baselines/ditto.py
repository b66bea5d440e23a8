"""Ditto-style baseline: pretrained-LM matcher proxy.

Ditto (Li et al., VLDB 2020) fine-tunes BERT on serialized record pairs and
is the supervised state of the art in paper Table 1.  The proxy keeps its
two essential properties: (a) it is trained on thousands of labelled pairs,
and (b) it "understands" surface variation the way a pretrained LM does —
modelled here by normalising text (abbreviations, units, case, accents)
before featurisation, plus rich similarity features and hashed n-grams of
the serialized pair fed to a logistic model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.entity_resolution import ERDataset, RecordPair
from repro.ml.features import HashingVectorizer, PairFeatureExtractor
from repro.ml.forest import RandomForest
from repro.ml.metrics import f1_score
from repro.text.normalize import normalize_text

__all__ = ["DittoMatcher", "evaluate_ditto"]


def _serialize(pair: RecordPair) -> str:
    """Ditto's COL/VAL serialization, normalised."""
    def side(record: dict) -> str:
        return " ".join(
            f"COL {key} VAL {normalize_text(str(value))}"
            for key, value in sorted(record.items())
            if value is not None
        )

    return side(pair.left) + " [SEP] " + side(pair.right)


@dataclass
class DittoMatcher:
    """Normalised similarity features + hashed pair text -> logistic model."""

    n_features: int = 1024
    epochs: int = 400
    seed: int = 0
    _extractor: PairFeatureExtractor | None = field(default=None, repr=False)
    _vectorizer: HashingVectorizer = field(
        default_factory=lambda: HashingVectorizer(n_features=512, word_ngrams=(1,)),
        repr=False,
    )
    _model: RandomForest | None = field(default=None, repr=False)
    _threshold: float = 0.5

    def _features(self, pairs: list[RecordPair], attributes: list[str]) -> np.ndarray:
        assert self._extractor is not None
        similarity = self._extractor.transform([(p.left, p.right) for p in pairs])
        text = self._vectorizer.transform([_serialize(p) for p in pairs])
        return np.hstack([similarity, text])

    def fit(self, attributes: list[str], pairs: list[RecordPair]) -> "DittoMatcher":
        """Train on labelled pairs (thousands, per the paper's protocol)."""
        if not pairs:
            raise ValueError("cannot fit on an empty pair set")
        self._extractor = PairFeatureExtractor(attributes, normalize=True)
        X = self._features(pairs, attributes)
        y = [p.label for p in pairs]
        self._model = RandomForest(
            n_trees=40, max_depth=12, max_features=0.7, seed=self.seed
        ).fit(X, y)
        # Calibrate the decision threshold on the training data for max F1 —
        # the fine-tuning analogue of Ditto's validation-split selection.
        probs = self._model.predict_proba(X)
        best_threshold, best_f1 = 0.5, -1.0
        for threshold in np.arange(0.2, 0.8, 0.02):
            f1 = f1_score(y, (probs >= threshold).astype(int))
            if f1 > best_f1:
                best_threshold, best_f1 = float(threshold), f1
        self._threshold = best_threshold
        return self

    def predict(self, pairs: list[RecordPair]) -> list[int]:
        """0/1 match predictions."""
        if self._model is None:
            raise RuntimeError("matcher is not fitted; call fit() first")
        X = self._features(pairs, [])
        return list(
            (self._model.predict_proba(X) >= self._threshold).astype(int)
        )


def evaluate_ditto(dataset: ERDataset, seed: int = 0) -> float:
    """Train on train+valid, report test F1 (the Table 1 protocol)."""
    matcher = DittoMatcher(seed=seed)
    matcher.fit(dataset.attributes, dataset.train + dataset.valid)
    predictions = matcher.predict(dataset.test)
    return f1_score([p.label for p in dataset.test], predictions)
