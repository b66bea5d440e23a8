"""Data profiling, anomaly detection and table summarisation.

The paper's introduction lists "anomaly detection, data summarization" among
the extra tasks real curation processes involve.  This module provides:

- :func:`profile_table` — per-column statistics (null rate, distinct count,
  numeric range, top values);
- :func:`detect_anomalies` — numeric outliers (robust z-score on the median
  absolute deviation) and rare categorical values;
- :func:`summarize_table` — an NL summary of the profile via the LLM
  service (only *aggregates* are uploaded, never rows — the connector
  philosophy applied to summarisation).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.llm.service import LLMService
from repro.storage.table import ColumnType, Table

__all__ = [
    "ColumnProfile",
    "TableProfile",
    "Anomaly",
    "profile_table",
    "detect_anomalies",
    "summarize_table",
]

#: Most common values a non-numeric column's profile lists.
TOP_K = 5
#: Robust z-score at or past which a numeric value is an outlier.
Z_THRESHOLD = 3.5
#: Largest share of a column's rows a value seen once may hold to be rare.
RARE_FRACTION = 0.05
#: Rows (and non-null values of a numeric column) below which nothing is flagged.
MIN_ROWS = 8


@dataclass(frozen=True)
class ColumnProfile:
    """Statistics of one column."""

    name: str
    type: str
    null_count: int
    distinct_count: int
    minimum: float | None = None
    maximum: float | None = None
    mean: float | None = None
    top_values: tuple[tuple[str, int], ...] = ()

    def to_text(self) -> str:
        """One-line rendering."""
        parts = [
            f"{self.name} ({self.type}): nulls={self.null_count}",
            f"distinct={self.distinct_count}",
        ]
        if self.mean is not None:
            parts.append(f"range=[{self.minimum:g}, {self.maximum:g}] mean={self.mean:g}")
        if self.top_values:
            top = ", ".join(f"{value}x{count}" for value, count in self.top_values[:3])
            parts.append(f"top: {top}")
        return " ".join(parts)


@dataclass
class TableProfile:
    """A whole-table profile."""

    table: str
    row_count: int
    columns: list[ColumnProfile] = field(default_factory=list)

    def column(self, name: str) -> ColumnProfile:
        """Profile of one column (raises KeyError if absent)."""
        for profile in self.columns:
            if profile.name == name:
                return profile
        raise KeyError(f"no profiled column {name!r}")

    def to_text(self) -> str:
        """Multi-line rendering."""
        lines = [f"table {self.table}: {self.row_count} rows"]
        lines.extend("  " + c.to_text() for c in self.columns)
        return "\n".join(lines)


@dataclass(frozen=True)
class Anomaly:
    """One flagged cell."""

    column: str
    row_index: int
    value: object
    kind: str  # "numeric_outlier" | "rare_category"
    score: float

    def describe(self) -> str:
        """One-line rendering."""
        return (
            f"{self.column}[{self.row_index}] = {self.value!r} "
            f"({self.kind}, score {self.score:.2f})"
        )


def profile_table(table: Table) -> TableProfile:
    """Compute per-column statistics for ``table``."""
    profile = TableProfile(table=table.name, row_count=len(table))
    for column in table.schema.columns:
        values = table.column(column.name)
        non_null = [v for v in values if v is not None]
        numeric = [v for v in non_null if isinstance(v, (int, float)) and not isinstance(v, bool)]
        stats: dict = {
            "name": column.name,
            "type": column.type,
            "null_count": len(values) - len(non_null),
            "distinct_count": len(set(map(str, non_null))),
        }
        if numeric and column.type in (ColumnType.INT, ColumnType.FLOAT):
            stats["minimum"] = float(min(numeric))
            stats["maximum"] = float(max(numeric))
            stats["mean"] = sum(numeric) / len(numeric)
        else:
            counts = Counter(str(v) for v in non_null)
            stats["top_values"] = tuple(counts.most_common(TOP_K))
        profile.columns.append(ColumnProfile(**stats))
    return profile


def _robust_z_scores(values: list[float]) -> list[float]:
    """Median/MAD z-scores (robust to the outliers being hunted)."""
    ordered = sorted(values)
    n = len(ordered)
    median = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
    deviations = sorted(abs(v - median) for v in values)
    mad = deviations[n // 2] if n % 2 else (deviations[n // 2 - 1] + deviations[n // 2]) / 2
    if mad == 0:
        # Fall back to the standard deviation when over half the data is
        # identical.
        mean = sum(values) / n
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / n) or 1.0
        return [(v - mean) / std for v in values]
    return [0.6745 * (v - median) / mad for v in values]


def detect_anomalies(table: Table) -> list[Anomaly]:
    """Flag numeric outliers and rare categorical values.

    Numeric columns use robust z-scores with threshold :data:`Z_THRESHOLD`;
    text/bool columns flag values occurring in fewer than
    :data:`RARE_FRACTION` of rows (and exactly once), provided the column
    is categorical-ish (distinct values << rows).
    """
    anomalies: list[Anomaly] = []
    if len(table) < MIN_ROWS:
        return anomalies
    for column in table.schema.columns:
        values = table.column(column.name)
        if column.type in (ColumnType.INT, ColumnType.FLOAT):
            indexed = [
                (i, float(v)) for i, v in enumerate(values) if v is not None
            ]
            if len(indexed) < MIN_ROWS:
                continue
            scores = _robust_z_scores([v for _, v in indexed])
            for (row_index, value), score in zip(indexed, scores):
                if abs(score) >= Z_THRESHOLD:
                    anomalies.append(
                        Anomaly(column.name, row_index, value, "numeric_outlier", abs(score))
                    )
        else:
            non_null = [(i, str(v)) for i, v in enumerate(values) if v is not None]
            if not non_null:
                continue
            counts = Counter(v for _, v in non_null)
            if len(counts) > max(2, len(non_null) // 3):
                continue  # free-text column, rarity is meaningless
            for row_index, value in non_null:
                count = counts[value]
                if count == 1 and count / len(non_null) <= RARE_FRACTION:
                    anomalies.append(
                        Anomaly(
                            column.name,
                            row_index,
                            value,
                            "rare_category",
                            1.0 - count / len(non_null),
                        )
                    )
    anomalies.sort(key=lambda a: (-a.score, a.column, a.row_index))
    return anomalies


def summarize_table(table: Table, service: LLMService) -> str:
    """NL summary of the table's profile (aggregates only reach the LLM)."""
    profile = profile_table(table)
    return service.complete(
        "Summarize the following table profile in plain language.\n"
        f"Text: {profile.to_text()}",
        purpose="profile-summary",
    )
