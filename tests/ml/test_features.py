"""Tests for repro.ml.features."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import seeded_rng
from repro.ml.features import PAIR_FEATURE_NAMES, HashingVectorizer, PairFeatureExtractor


class TestHashingVectorizer:
    def test_deterministic(self):
        v = HashingVectorizer(n_features=64)
        a = v.transform_one("stone ipa beer")
        b = v.transform_one("stone ipa beer")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        v = HashingVectorizer(n_features=64)
        assert np.linalg.norm(v.transform_one("hello world")) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        v = HashingVectorizer(n_features=32)
        assert np.linalg.norm(v.transform_one("")) == 0.0

    def test_similar_texts_closer_than_different(self):
        v = HashingVectorizer(n_features=512)
        a = v.transform_one("sony playstation memory card")
        b = v.transform_one("sony playstation memory stick")
        c = v.transform_one("garden salad recipe ideas")
        assert a @ b > a @ c

    def test_batch_shape(self):
        v = HashingVectorizer(n_features=128)
        X = v.transform(["a", "b", "c"])
        assert X.shape == (3, 128)

    def test_empty_batch(self):
        v = HashingVectorizer(n_features=128)
        assert v.transform([]).shape == (0, 128)

    @given(st.text(max_size=40))
    def test_never_crashes_and_finite(self, text: str):
        v = HashingVectorizer(n_features=32)
        vec = v.transform_one(text)
        assert np.isfinite(vec).all()


class TestPairFeatureExtractor:
    LEFT = {"name": "Stone IPA", "abv": "5.5"}
    RIGHT = {"name": "Stone India Pale Ale", "abv": "5.5"}

    def test_feature_width(self):
        ex = PairFeatureExtractor(["name", "abv"])
        assert ex.n_features == 2 * len(PAIR_FEATURE_NAMES)

    def test_metric_subset(self):
        ex = PairFeatureExtractor(["name"], metrics=("jaccard", "numeric"))
        assert ex.n_features == 2

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            PairFeatureExtractor(["name"], metrics=("nope",))

    def test_identical_records_score_high(self):
        ex = PairFeatureExtractor(["name"])
        vec = ex.transform_pair({"name": "abc def"}, {"name": "abc def"})
        assert vec.min() >= 0.99

    def test_missing_both_gives_neutral(self):
        ex = PairFeatureExtractor(["name"], metrics=("jaccard", "both_present"))
        vec = ex.transform_pair({"name": None}, {"name": None})
        assert list(vec) == [0.5, 0.0]

    def test_normalization_helps_abbreviations(self):
        raw = PairFeatureExtractor(["name"], normalize=False)
        norm = PairFeatureExtractor(["name"], normalize=True)
        left, right = {"name": "12 Main St."}, {"name": "12 Main Street"}
        assert norm.transform_pair(left, right).mean() > raw.transform_pair(left, right).mean()

    def test_batch_shape(self):
        ex = PairFeatureExtractor(["name"])
        X = ex.transform([(self.LEFT, self.RIGHT)] * 3)
        assert X.shape == (3, ex.n_features)

    def test_values_in_unit_range(self):
        ex = PairFeatureExtractor(["name", "abv"])
        vec = ex.transform_pair(self.LEFT, self.RIGHT)
        assert (vec >= 0).all() and (vec <= 1).all()

    def test_memo_survives_string_address_reuse(self):
        """A long-lived extractor must not serve a freed string's text.

        Records are built and dropped in a loop, so CPython hands later
        strings the addresses of earlier ones; every vector must still
        equal what a fresh extractor computes.
        """
        rng = seeded_rng("pair-feature-memo")
        words = ["stone", "ipa", "pale", "ale", "lager", "St.", "12oz", "Co."]
        shared = PairFeatureExtractor(["name"])
        for _ in range(300):
            left = {"name": " ".join(rng.choice(words) for _ in range(3))}
            right = {"name": " ".join(rng.choice(words) for _ in range(3))}
            fresh = PairFeatureExtractor(["name"]).transform_pair(left, right)
            assert np.array_equal(shared.transform_pair(left, right), fresh)
