"""Tests for the paper's comparison baselines."""

from __future__ import annotations

import pytest

from repro.baselines.ditto import DittoMatcher, evaluate_ditto
from repro.baselines.fms import evaluate_fms_imputation
from repro.baselines.holoclean import HoloCleanImputer, evaluate_holoclean
from repro.baselines.imp import IMPImputer, evaluate_imp
from repro.baselines.magellan import MagellanMatcher, evaluate_magellan
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset


@pytest.fixture(scope="module")
def beer():
    return generate_er_dataset("beer", n_entities=300)


@pytest.fixture(scope="module")
def buy():
    return generate_buy_dataset(n_train=1500, n_test=200)


class TestMagellan:
    def test_learns_something(self, beer):
        f1 = evaluate_magellan(beer)
        assert f1 > 0.5

    def test_requires_training_data(self):
        with pytest.raises(ValueError):
            MagellanMatcher().fit(["name"], [])

    def test_predict_before_fit_raises(self, beer):
        with pytest.raises(RuntimeError):
            MagellanMatcher().predict(beer.test)


class TestDitto:
    def test_beats_chance(self, beer):
        assert evaluate_ditto(beer) > 0.5

    def test_normalization_advantage_over_magellan(self):
        # On the full-size beer benchmark with its test-time format drift,
        # the normalisation-based matcher is at least as good.
        ds = generate_er_dataset("beer")
        assert evaluate_ditto(ds) >= evaluate_magellan(ds) - 0.02

    def test_requires_training_data(self):
        with pytest.raises(ValueError):
            DittoMatcher().fit(["name"], [])


class TestFMs:
    def test_matching_runs_and_scores(self, service, beer):
        small = beer.test[:40]
        from repro.ml.metrics import f1_score
        from repro.baselines.fms import fms_match_pair

        y_pred = [int(fms_match_pair(service, p)) for p in small]
        y_true = [p.label for p in small]
        assert 0.0 <= f1_score(y_true, y_pred) <= 1.0
        assert service.usage().served_calls == len(small)

    def test_imputation_accuracy_reasonable(self, service, buy):
        accuracy = evaluate_fms_imputation(service, buy.test[:100])
        assert 0.6 < accuracy < 0.95  # clearly worse than the tuned system


class TestHoloClean:
    def test_signal_starved_on_buy(self, buy):
        accuracy = evaluate_holoclean(buy.train, buy.test)
        assert accuracy < 0.4  # the paper's point: classical repair fails here

    def test_exact_name_fd_still_works(self, buy):
        imputer = HoloCleanImputer().fit(buy.train)
        record = buy.train[0]
        assert imputer.predict_one({"name": record.name}) == record.manufacturer

    def test_majority_prior_fallback(self, buy):
        imputer = HoloCleanImputer().fit(buy.train)
        prediction = imputer.predict_one({"name": "zzz qqq completely unseen"})
        assert isinstance(prediction, str) and prediction

    def test_requires_observed_data(self):
        with pytest.raises(ValueError):
            HoloCleanImputer().fit([])


class TestIMP:
    def test_supervised_ceiling(self, buy):
        accuracy = evaluate_imp(buy.train, buy.test)
        assert accuracy > 0.85

    def test_beats_holoclean(self, buy):
        assert evaluate_imp(buy.train, buy.test) > evaluate_holoclean(buy.train, buy.test)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            IMPImputer().predict_one({"name": "x"})

    def test_requires_training_data(self):
        with pytest.raises(ValueError):
            IMPImputer().fit([])


class TestColumnarBaselines:
    """The baselines' batch kernels against their per-record references.

    The batch feature path must be *bitwise* identical to stacked
    ``transform_pair`` rows (the random forest goldens are sensitive to any
    float drift) on the split the model is fitted on and the split it
    predicts, so fitted models and predictions are the ones the reference
    features would give; HoloClean's vote matrix is integer-exact.
    """

    @staticmethod
    def _assert_features_match_reference(extractor, pairs):
        import numpy as np

        rows = [(p.left, p.right) for p in pairs]
        reference = np.stack([extractor.transform_pair(a, b) for a, b in rows])
        assert np.array_equal(extractor.transform(rows), reference)

    def test_magellan_features_and_predictions_identical(self, beer):
        matcher = MagellanMatcher().fit(["name", "abv"], beer.train[:200])
        self._assert_features_match_reference(matcher._extractor, beer.train[:200])
        self._assert_features_match_reference(matcher._extractor, beer.test[:100])

    def test_ditto_predictions_identical(self, beer):
        matcher = DittoMatcher().fit(["name", "abv"], beer.train[:200])
        self._assert_features_match_reference(matcher._extractor, beer.train[:200])
        self._assert_features_match_reference(matcher._extractor, beer.test[:100])

    def test_holoclean_predictions_identical(self, buy):
        imputer = HoloCleanImputer().fit(buy.train)
        records = [r.visible() for r in buy.test] + [
            {"name": ""},
            {"name": "zzz qqq completely unseen"},
            {"name": buy.train[0].name},
        ]
        assert imputer.predict(records) == [imputer.predict_one(r) for r in records]
