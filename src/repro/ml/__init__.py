"""Minimal supervised-learning substrate (pure numpy).

Provides the learners, features and metrics the Lingua Manga optimizer's
simulator and the paper's baselines (Magellan, Ditto, IMP) are built on.
"""

from repro.ml.features import PAIR_FEATURE_NAMES, HashingVectorizer, PairFeatureExtractor
from repro.ml.forest import RandomForest
from repro.ml.logistic import SoftmaxRegression
from repro.ml.metrics import accuracy, f1_score, precision_recall_f1
from repro.ml.naive_bayes import MultinomialNaiveBayes
from repro.ml.tree import DecisionTree

__all__ = [
    "PAIR_FEATURE_NAMES",
    "HashingVectorizer",
    "PairFeatureExtractor",
    "RandomForest",
    "SoftmaxRegression",
    "accuracy",
    "f1_score",
    "precision_recall_f1",
    "MultinomialNaiveBayes",
    "DecisionTree",
]
