"""IMP-style baseline: supervised imputation trained on thousands of labels.

IMP (Mei et al., ICDE 2021) trains a Transformer over record text to impute
missing values, reaching 96.5% on Buy in the paper.  The proxy keeps the
regime — a text model trained on thousands of labelled records — using a
token-level multinomial naive Bayes, which captures the lexical
line-to-brand mapping the Transformer learns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.imputation import ImputationRecord
from repro.ml.metrics import accuracy
from repro.ml.naive_bayes import MultinomialNaiveBayes

__all__ = ["IMPImputer", "evaluate_imp"]


def _record_text(record: dict) -> str:
    name = str(record.get("name") or "")
    description = str(record.get("description") or "")
    # The name is the strongest signal; repeat it to up-weight its tokens.
    return f"{name} {name} | {description}"


@dataclass
class IMPImputer:
    """Token language model (multinomial NB) over manufacturers.

    The discriminative signal on Buy is lexical — product-line tokens map
    almost deterministically to brands once thousands of examples are seen —
    which a token-level model captures the same way IMP's Transformer does.
    """

    _model: MultinomialNaiveBayes | None = field(default=None, repr=False)

    def fit(self, labelled: list[ImputationRecord]) -> "IMPImputer":
        """Train on labelled records; returns self."""
        if not labelled:
            raise ValueError("cannot fit on an empty training set")
        texts = [_record_text(record.visible()) for record in labelled]
        y = [record.manufacturer for record in labelled]
        self._model = MultinomialNaiveBayes(alpha=0.1).fit(texts, y)
        return self

    def predict_one(self, record: dict) -> str:
        """Impute one record's manufacturer."""
        if self._model is None:
            raise RuntimeError("imputer is not fitted; call fit() first")
        return str(self._model.predict_one(_record_text(record)))

    def predict(self, records: list[dict]) -> list[str]:
        """Impute a batch."""
        return [self.predict_one(record) for record in records]


def evaluate_imp(
    train: list[ImputationRecord], test: list[ImputationRecord]
) -> float:
    """Train on the labelled split, report test accuracy."""
    imputer = IMPImputer().fit(train)
    predictions = imputer.predict([record.visible() for record in test])
    return accuracy([record.manufacturer for record in test], predictions)
