"""HoloClean-style baseline: probabilistic repair from co-occurrence signals.

HoloClean (Rekatsinas et al., VLDB 2017) repairs cells with probabilistic
inference over functional dependencies and value co-occurrence statistics.
It treats attribute values as *categorical domain values* — it has no text
semantics and no world knowledge.  On the Buy task (infer a manufacturer
from a free-text product name) that signal model is fundamentally starved,
which is why the paper reports 16.2% accuracy.  The proxy mirrors the signal
model faithfully:

- exact-value FD: identical names observed with a manufacturer vote for it;
- categorical co-occurrence: only *frequent* tokens (the ones that behave
  like categorical domain values, e.g. "Headphones") carry votes;
- otherwise the global majority prior.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.imputation import ImputationRecord
from repro.ml.metrics import accuracy

__all__ = ["HoloCleanImputer", "evaluate_holoclean"]


def _top_vote(votes: Counter) -> str:
    """Highest-count value, ties broken alphabetically.

    ``Counter.most_common`` breaks ties by insertion order, which here
    flows from ``set`` iteration — randomised per process by string
    hashing.  An explicit tie-break keeps the baseline reproducible.
    """
    return min(votes, key=lambda value: (-votes[value], value))


@dataclass
class HoloCleanImputer:
    """Co-occurrence voting over frequent categorical tokens."""

    min_token_frequency: int = 25
    _exact: dict[str, Counter] = field(default_factory=dict, repr=False)
    _token_votes: dict[str, Counter] = field(default_factory=dict, repr=False)
    _prior: Counter = field(default_factory=Counter, repr=False)
    _vote_matrix: "np.ndarray | None" = field(default=None, repr=False)
    _vote_token_ids: dict[str, int] = field(default_factory=dict, repr=False)
    _labels: tuple[str, ...] = field(default=(), repr=False)

    def fit(self, observed: list[ImputationRecord]) -> "HoloCleanImputer":
        """Learn statistics from records whose manufacturer is observed."""
        if not observed:
            raise ValueError("cannot fit on an empty observed set")
        token_frequency: Counter = Counter()
        raw_votes: dict[str, Counter] = defaultdict(Counter)
        self._exact = defaultdict(Counter)
        self._prior = Counter()
        for record in observed:
            self._prior[record.manufacturer] += 1
            self._exact[record.name.lower()][record.manufacturer] += 1
            for token in set(record.name.lower().split()):
                token_frequency[token] += 1
                raw_votes[token][record.manufacturer] += 1
        # Only high-frequency tokens act as categorical domain values.
        self._token_votes = {
            token: votes
            for token, votes in raw_votes.items()
            if token_frequency[token] >= self.min_token_frequency
        }
        # Columnar side tables: labels in sorted order (so argmax's
        # first-maximum tie-break IS the alphabetical tie-break of
        # ``_top_vote``) and one int row of votes per frequent token.
        self._labels = tuple(sorted(self._prior))
        label_ids = {label: k for k, label in enumerate(self._labels)}
        self._vote_token_ids = {
            token: t for t, token in enumerate(sorted(self._token_votes))
        }
        self._vote_matrix = np.zeros(
            (len(self._vote_token_ids), len(self._labels)), dtype=np.int64
        )
        for token, t in self._vote_token_ids.items():
            for label, count in self._token_votes[token].items():
                self._vote_matrix[t, label_ids[label]] = count
        return self

    def predict_one(self, record: dict) -> str:
        """Repair one record's manufacturer (:meth:`predict`'s reference)."""
        if not self._prior:
            raise RuntimeError("imputer is not fitted; call fit() first")
        name = str(record.get("name", "")).lower()
        if name in self._exact:
            return _top_vote(self._exact[name])
        votes: Counter = Counter()
        for token in set(name.split()):
            if token in self._token_votes:
                votes.update(self._token_votes[token])
        if votes:
            return _top_vote(votes)
        return _top_vote(self._prior)

    def predict(self, records: list[dict]) -> list[str]:
        """Repair a batch of records.

        Every record's token votes accumulate in one integer matrix pass;
        votes are exact counts, so it agrees with :meth:`predict_one` on
        every record.
        """
        if not self._prior:
            raise RuntimeError("imputer is not fitted; call fit() first")
        if not records:
            return []
        assert self._vote_matrix is not None
        names = [str(record.get("name", "")).lower() for record in records]
        out: list[str | None] = [None] * len(records)
        exact_cache: dict[str, str] = {}
        open_rows: list[int] = []
        entry_rows: list[int] = []
        entry_tokens: list[int] = []
        for i, name in enumerate(names):
            if name in self._exact:
                if name not in exact_cache:
                    exact_cache[name] = _top_vote(self._exact[name])
                out[i] = exact_cache[name]
                continue
            open_rows.append(i)
            row = len(open_rows) - 1
            for token in set(name.split()):
                t = self._vote_token_ids.get(token)
                if t is not None:
                    entry_rows.append(row)
                    entry_tokens.append(t)
        prior_top = _top_vote(self._prior)
        if open_rows:
            votes = np.zeros((len(open_rows), len(self._labels)), dtype=np.int64)
            if entry_rows:
                np.add.at(
                    votes,
                    np.asarray(entry_rows, dtype=np.int64),
                    self._vote_matrix[np.asarray(entry_tokens, dtype=np.int64)],
                )
            winners = np.argmax(votes, axis=1)
            voted = votes.sum(axis=1) > 0
            for row, i in enumerate(open_rows):
                out[i] = self._labels[winners[row]] if voted[row] else prior_top
        # Every index was filled by the exact path or the open-rows path.
        return [value for value in out if value is not None]


def evaluate_holoclean(
    train: list[ImputationRecord], test: list[ImputationRecord]
) -> float:
    """Fit on observed training records, report test accuracy."""
    imputer = HoloCleanImputer().fit(train)
    predictions = imputer.predict([record.visible() for record in test])
    return accuracy([record.manufacturer for record in test], predictions)
