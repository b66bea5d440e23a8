"""Feature extraction for the ML substrate.

Two families are provided:

- **hashed text features** (:class:`HashingVectorizer`) used by the
  simulator's student models and by the Ditto/IMP-style baselines, and
- **record-pair similarity features** (:class:`PairFeatureExtractor`) used by
  the Magellan-style baseline (paper Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro._util import stable_hash
from repro.text.normalize import extract_numbers, normalize_text
from repro.text.similarity import (
    jaccard_similarity,
    jaccard_similarity_many,
    jaro_winkler_similarity,
    jaro_winkler_similarity_many,
    levenshtein_similarity,
    levenshtein_similarity_many,
    monge_elkan_similarity,
    monge_elkan_similarity_many,
    numeric_similarity,
    numeric_similarity_many,
    overlap_coefficient,
    overlap_coefficient_many,
    qgram_similarity,
    qgram_similarity_many,
    word_set_stats,
)
from repro.text.tokenize import char_ngrams, word_tokenize

__all__ = ["HashingVectorizer", "PairFeatureExtractor", "PAIR_FEATURE_NAMES"]


@dataclass
class HashingVectorizer:
    """Hash word and character n-grams into a fixed-width dense vector.

    Hashing avoids a vocabulary-fitting pass, so the vectorizer is stateless
    and usable online — exactly what the optimizer's simulator needs while it
    shadows a live module.
    """

    n_features: int = 2048
    word_ngrams: tuple[int, ...] = (1, 2)
    char_ngram_sizes: tuple[int, ...] = (3,)

    def transform_one(self, text: str) -> np.ndarray:
        """Vectorise a single (lowercased) string."""
        text = text.lower()
        vector = np.zeros(self.n_features, dtype=np.float64)
        if not text.strip():
            return vector
        tokens = word_tokenize(text)
        for n in self.word_ngrams:
            for i in range(len(tokens) - n + 1):
                gram = " ".join(tokens[i : i + n])
                vector[stable_hash("w", n, gram) % self.n_features] += 1.0
        for size in self.char_ngram_sizes:
            for gram in char_ngrams(text, size):
                vector[stable_hash("c", size, gram) % self.n_features] += 1.0
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Vectorise a batch of strings into an ``(n, n_features)`` matrix."""
        if not texts:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return np.stack([self.transform_one(t) for t in texts])


# Per-attribute similarity feature names in the order they are emitted.
PAIR_FEATURE_NAMES = (
    "jaccard",
    "jaro_winkler",
    "levenshtein",
    "overlap",
    "qgram",
    "monge_elkan",
    "numeric",
    "both_present",
)


@dataclass
class PairFeatureExtractor:
    """Magellan-style similarity feature vector for a pair of records.

    For every attribute in ``attributes`` it computes a menu of string
    similarities, plus a numeric-closeness score and a missing-value
    indicator.  ``metrics`` selects a subset of the menu — the classical
    matcher of the paper's Table 1 uses the word/edit family only, while the
    richer typo-robust metrics (qgram, monge_elkan) model what a pretrained
    LM picks up.
    """

    attributes: Sequence[str]
    normalize: bool = True
    metrics: Sequence[str] = PAIR_FEATURE_NAMES
    _cache: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        unknown = set(self.metrics) - set(PAIR_FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown pair metrics: {sorted(unknown)}")

    @property
    def n_features(self) -> int:
        """Width of the emitted feature vector."""
        return len(self.attributes) * len(self.metrics)

    def _clean(self, value: object) -> str:
        text = "" if value is None else str(value)
        if not self.normalize:
            return text
        cleaned = self._cache.get(text)
        if cleaned is None:
            cleaned = self._cache[text] = normalize_text(text)
        return cleaned

    def transform_pair(
        self, left: Mapping[str, object], right: Mapping[str, object]
    ) -> np.ndarray:
        """Feature vector for one record pair (:meth:`transform`'s reference)."""
        values: list[float] = []
        for attribute in self.attributes:
            a = self._clean(left.get(attribute))
            b = self._clean(right.get(attribute))
            if not a and not b:
                # Both missing: neutral similarity, flagged absent.
                values.extend(
                    0.0 if metric == "both_present" else 0.5
                    for metric in self.metrics
                )
                continue
            numbers_a = extract_numbers(a)
            numbers_b = extract_numbers(b)
            computed = {
                "jaccard": lambda: jaccard_similarity(a, b),
                "jaro_winkler": lambda: jaro_winkler_similarity(a, b),
                "levenshtein": lambda: levenshtein_similarity(a, b),
                "overlap": lambda: overlap_coefficient(a, b),
                "qgram": lambda: qgram_similarity(a, b),
                "monge_elkan": lambda: monge_elkan_similarity(a, b),
                "numeric": lambda: numeric_similarity(
                    numbers_a[0] if numbers_a else None,
                    numbers_b[0] if numbers_b else None,
                ),
                "both_present": lambda: 1.0 if a and b else 0.0,
            }
            values.extend(computed[metric]() for metric in self.metrics)
        return np.asarray(values, dtype=np.float64)

    def transform(
        self, pairs: Sequence[tuple[Mapping[str, object], Mapping[str, object]]]
    ) -> np.ndarray:
        """Feature matrix for a batch of pairs.

        Every metric is computed over the whole batch at once; the result is
        bitwise-identical to stacking :meth:`transform_pair` rows.
        """
        if not pairs:
            return np.zeros((0, self.n_features), dtype=np.float64)
        clean = self._clean
        number_cache: dict[str, float | None] = {}

        def first_number(text: str) -> float | None:
            if text not in number_cache:
                numbers = extract_numbers(text)
                number_cache[text] = numbers[0] if numbers else None
            return number_cache[text]

        batch = {
            "jaccard": jaccard_similarity_many,
            "jaro_winkler": jaro_winkler_similarity_many,
            "levenshtein": levenshtein_similarity_many,
            "overlap": overlap_coefficient_many,
            "qgram": qgram_similarity_many,
            "monge_elkan": monge_elkan_similarity_many,
        }
        columns: list[np.ndarray] = []
        for attribute in self.attributes:
            a = [clean(left.get(attribute)) for left, _ in pairs]
            b = [clean(right.get(attribute)) for _, right in pairs]
            # Every metric is a pure function of the two cleaned texts, so
            # repeated value combinations — the norm for blocking
            # candidates, where each record appears in several pairs —
            # are scored once and scattered back through ``inverse``.
            pair_ids: dict[tuple[str, str], int] = {}
            inverse = np.empty(len(a), dtype=np.int64)
            uniq_a: list[str] = []
            uniq_b: list[str] = []
            for i, key in enumerate(zip(a, b)):
                idx = pair_ids.get(key)
                if idx is None:
                    idx = len(uniq_a)
                    pair_ids[key] = idx
                    uniq_a.append(key[0])
                    uniq_b.append(key[1])
                inverse[i] = idx
            present_a = np.fromiter((bool(t) for t in a), dtype=bool, count=len(a))
            present_b = np.fromiter((bool(t) for t in b), dtype=bool, count=len(b))
            both_empty = ~present_a & ~present_b
            set_stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
            for metric in self.metrics:
                if metric == "both_present":
                    column = np.where(present_a & present_b, 1.0, 0.0)
                    columns.append(np.where(both_empty, 0.0, column))
                    continue
                if metric == "numeric":
                    values = numeric_similarity_many(
                        [first_number(t) for t in uniq_a],
                        [first_number(t) for t in uniq_b],
                    )
                elif metric in ("jaccard", "overlap"):
                    # Jaccard and overlap share one tokenize/intersect pass.
                    if set_stats is None:
                        set_stats = word_set_stats(uniq_a, uniq_b)
                    values = batch[metric](uniq_a, uniq_b, stats=set_stats)
                else:
                    values = batch[metric](uniq_a, uniq_b)
                column = values[inverse]
                # Both missing: neutral similarity, matching transform_pair.
                columns.append(np.where(both_empty, 0.5, column))
        return np.stack(columns, axis=1)
