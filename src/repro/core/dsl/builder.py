"""Fluent Python builder for logical pipelines.

The no-code path in the paper builds pipelines by clicking operators
together (Figure 2a); this builder is the programmatic equivalent: each call
appends an operator wired to the previous one, so a linear pipeline reads as
a chain.  ``add`` with explicit ``inputs`` covers DAG shapes.
"""

from __future__ import annotations

from typing import Any

from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.dsl.pipeline import Pipeline

__all__ = ["PipelineBuilder"]


class PipelineBuilder:
    """Chainable builder: ``PipelineBuilder('er').load(...).save(...).build()``."""

    def __init__(self, name: str, description: str = ""):
        self._pipeline = Pipeline(name=name, description=description)
        self._last_name: str | None = None
        self._counter = 0

    def _auto_name(self, kind: str) -> str:
        self._counter += 1
        return f"{kind}_{self._counter}"

    def add(
        self,
        kind: str,
        name: str | None = None,
        inputs: list[str] | None = None,
        **params: Any,
    ) -> "PipelineBuilder":
        """Append an operator of ``kind``.

        Without explicit ``inputs`` the operator consumes the previously
        added one (linear chaining); the first operator gets no inputs.
        """
        op_name = name or self._auto_name(kind)
        if inputs is None:
            inputs = [self._last_name] if self._last_name is not None else []
        operator = LogicalOperator(name=op_name, kind=kind, params=params, inputs=inputs)
        self._pipeline.add(operator)
        self._last_name = op_name
        return self

    # -- convenience wrappers, one per common operator kind ---------------------

    def load(self, **params: Any) -> "PipelineBuilder":
        """Append a ``load`` source operator."""
        return self.add(OperatorKind.LOAD, inputs=[], **params)

    def save(self, **params: Any) -> "PipelineBuilder":
        """Append a ``save`` sink operator."""
        return self.add(OperatorKind.SAVE, **params)

    def match_entities(self, **params: Any) -> "PipelineBuilder":
        """Append an entity-resolution operator."""
        return self.add(OperatorKind.MATCH_ENTITIES, **params)

    def impute(self, **params: Any) -> "PipelineBuilder":
        """Append a data-imputation operator."""
        return self.add(OperatorKind.IMPUTE, **params)

    def tokenize(self, **params: Any) -> "PipelineBuilder":
        """Append a tokenisation operator."""
        return self.add(OperatorKind.TOKENIZE, **params)

    def noun_phrases(self, **params: Any) -> "PipelineBuilder":
        """Append a noun-phrase extraction operator."""
        return self.add(OperatorKind.NOUN_PHRASES, **params)

    def tag_names(self, **params: Any) -> "PipelineBuilder":
        """Append a person-name tagging operator."""
        return self.add(OperatorKind.TAG_NAMES, **params)

    def detect_language(self, **params: Any) -> "PipelineBuilder":
        """Append a language-detection operator."""
        return self.add(OperatorKind.DETECT_LANGUAGE, **params)

    def dedupe(self, **params: Any) -> "PipelineBuilder":
        """Append a deduplication operator."""
        return self.add(OperatorKind.DEDUPE, **params)

    def clean_text(self, **params: Any) -> "PipelineBuilder":
        """Append a text-normalisation operator."""
        return self.add(OperatorKind.CLEAN_TEXT, **params)

    def custom(self, **params: Any) -> "PipelineBuilder":
        """Append a custom (user-code) operator."""
        return self.add(OperatorKind.CUSTOM, **params)

    def dedup_candidates(self, **params: Any) -> "PipelineBuilder":
        """Append a duplicate-candidate generation operator (digest + LSH)."""
        return self.add(OperatorKind.DEDUP_CANDIDATES, **params)

    def quality_filter(self, **params: Any) -> "PipelineBuilder":
        """Append a document-quality cascade operator."""
        return self.add(OperatorKind.QUALITY_FILTER, **params)

    def decontaminate(self, **params: Any) -> "PipelineBuilder":
        """Append a benchmark-decontamination cascade operator."""
        return self.add(OperatorKind.DECONTAMINATE, **params)

    def build(self) -> Pipeline:
        """Validate and return the pipeline."""
        self._pipeline.validate()
        return self._pipeline
