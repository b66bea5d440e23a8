"""Logical operators of the Lingua Manga DSL.

A pipeline is a DAG of *logical* operators (paper section 3: "composing
pipelines of logical operators").  Each operator declares a kind from the
operator catalogue, free-form parameters, and its upstream inputs.  The
compiler later binds each logical operator to a *physical module*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["OperatorKind", "LogicalOperator"]


class OperatorKind:
    """The catalogue of logical operator kinds."""

    LOAD = "load"
    SAVE = "save"
    MATCH_ENTITIES = "match_entities"
    IMPUTE = "impute"
    TOKENIZE = "tokenize"
    NOUN_PHRASES = "noun_phrases"
    TAG_NAMES = "tag_names"
    DETECT_LANGUAGE = "detect_language"
    DEDUPE = "dedupe"
    CLEAN_TEXT = "clean_text"
    SCHEMA_MATCH = "schema_match"
    CUSTOM = "custom"
    DEDUP_CANDIDATES = "dedup_candidates"
    QUALITY_FILTER = "quality_filter"
    DECONTAMINATE = "decontaminate"

    ALL = (
        LOAD, SAVE, MATCH_ENTITIES, IMPUTE, TOKENIZE, NOUN_PHRASES, TAG_NAMES,
        DETECT_LANGUAGE, DEDUPE, CLEAN_TEXT, SCHEMA_MATCH, CUSTOM,
        DEDUP_CANDIDATES, QUALITY_FILTER, DECONTAMINATE,
    )


@dataclass
class LogicalOperator:
    """One node of a logical pipeline.

    ``params`` hold operator-specific configuration, including compiler
    hints: ``impl`` (which physical strategy to use: ``custom`` / ``llm`` /
    ``llmgc``), ``validator`` (attach the optimizer's validator), and
    ``simulate`` (attach the optimizer's simulator).
    """

    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in OperatorKind.ALL:
            raise ValueError(
                f"unknown operator kind {self.kind!r}; known: {OperatorKind.ALL}"
            )
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"operator name must be an identifier, got {self.name!r}")

    def describe(self) -> str:
        """Short description for EXPLAIN output and the UI."""
        hints = []
        for hint in ("impl", "validator", "simulate"):
            if hint in self.params:
                hints.append(f"{hint}={self.params[hint]}")
        suffix = f" [{', '.join(hints)}]" if hints else ""
        return f"{self.name}: {self.kind}{suffix}"
