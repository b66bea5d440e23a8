"""The run profiler: per-module cost/provenance accounting for a run.

A :class:`RunProfile` is attached to every
:class:`~repro.core.compiler.plan.RunReport` (``report.profile``): one
:class:`ProfileRow` per operator, derived from that operator's
canonicalized ledger slice, breaking down how its answers were produced
(provider / exact cache / distilled), what they cost,
and what the resilience layer absorbed (retries, failures, quarantined
records).

The profile is the run's bill: ``report.cost`` is :meth:`RunProfile.totals`
(:func:`~repro.core.compiler.plan.close_report`), in both engines.
:func:`profile_records` is the one function that decides what a ledger
record counts as (provider, exact cache, distilled, failed) and sums it;
:meth:`~repro.llm.service.LLMService.usage` counts with it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterable

from repro.llm.cache import PROVENANCE_DISTILLED

__all__ = ["ProfileRow", "RunProfile", "profile_records"]

_COLUMNS = (
    ("module", 24),
    ("calls", 6),
    ("provider", 9),
    ("exact", 6),
    ("distilled", 9),
    ("cost", 10),
    ("retries", 8),
    ("failed", 7),
    ("quarantined", 12),
)


@dataclass(frozen=True)
class ProfileRow:
    """What one module spent and absorbed during a run."""

    module: str
    calls: int = 0  # every ledger record the operator produced
    provider_calls: int = 0  # paid, successful provider answers
    cache_exact: int = 0
    distilled: int = 0
    cost: float = 0.0
    latency_seconds: float = 0.0
    #: virtual latency attributable to *provider-path* records only (not
    #: cached, any outcome).  ``latency_seconds`` is the all-provenance
    #: total; the split keeps distilled local-model time out of
    #: provider time.
    provider_seconds: float = 0.0
    #: virtual latency of distilled local-model answers (provenance
    #: ``distilled``), surfaced under its own key rather than folded into
    #: provider time.
    distilled_seconds: float = 0.0
    retries: int = 0
    failures: int = 0
    quarantined: int = 0

    @property
    def cached_calls(self) -> int:
        """All zero-cost answers (exact + distilled)."""
        return self.cache_exact + self.distilled

    def __add__(self, other: ProfileRow) -> ProfileRow:
        """Field-wise sum under this row's module name.

        The one row sum: :meth:`RunProfile.totals` and the streaming fold
        both add left to right from a zero row, so float order is fixed.
        """
        return ProfileRow(
            self.module,
            *(getattr(self, name) + getattr(other, name) for name in _SUMMED),
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict with cost fields normalized (rounded)."""
        return {
            "module": self.module,
            "calls": self.calls,
            "provider_calls": self.provider_calls,
            "cache_exact": self.cache_exact,
            "distilled": self.distilled,
            "cost": round(self.cost, 10),
            "latency_seconds": round(self.latency_seconds, 9),
            "provider_seconds": round(self.provider_seconds, 9),
            "distilled_seconds": round(self.distilled_seconds, 9),
            "retries": self.retries,
            "failures": self.failures,
            "quarantined": self.quarantined,
        }


#: Every field but ``module``, in declaration order.
_SUMMED = tuple(f.name for f in fields(ProfileRow))[1:]


def profile_records(
    module: str, records: Iterable[Any], quarantined: int = 0
) -> ProfileRow:
    """Aggregate one operator's ledger slice into a :class:`ProfileRow`.

    ``records`` are :class:`~repro.llm.service.CallRecord` objects (any
    object with the same fields works).  The slice must already be
    canonicalized — the executor profiles after the scheduler's merge.
    """
    calls = provider = exact = distilled = 0
    retries = failures = 0
    cost = latency = provider_seconds = distilled_seconds = 0.0
    for record in records:
        calls += 1
        cost += record.cost
        latency += record.latency_seconds
        retries += record.retries
        if not record.cached:
            provider_seconds += record.latency_seconds
        elif record.provenance == PROVENANCE_DISTILLED:
            distilled_seconds += record.latency_seconds
        if not record.succeeded:
            failures += 1
        elif record.cached:
            if record.provenance == PROVENANCE_DISTILLED:
                distilled += 1
            else:
                exact += 1
        else:
            provider += 1
    return ProfileRow(
        module=module,
        calls=calls,
        provider_calls=provider,
        cache_exact=exact,
        distilled=distilled,
        cost=cost,
        latency_seconds=latency,
        provider_seconds=provider_seconds,
        distilled_seconds=distilled_seconds,
        retries=retries,
        failures=failures,
        quarantined=quarantined,
    )


@dataclass
class RunProfile:
    """Per-module profile of one plan execution."""

    rows: list[ProfileRow] = field(default_factory=list)

    def totals(self) -> ProfileRow:
        """Column sums across every row."""
        return sum(self.rows, ProfileRow(module="TOTAL"))

    def to_dict(self) -> list[dict[str, Any]]:
        """Canonical row dicts (cost fields normalized)."""
        return [row.to_dict() for row in self.rows]

    def to_table(self) -> str:
        """Fixed-width per-module table (the UI's profile panel body), with a
        totals row under two or more modules."""
        header = " ".join(title.rjust(width) for title, width in _COLUMNS)
        lines = [header, "-" * len(header)]
        rows = list(self.rows)
        if len(rows) > 1:
            rows.append(self.totals())
        for row in rows:
            values = (
                row.module[: _COLUMNS[0][1]],
                row.calls,
                row.provider_calls,
                row.cache_exact,
                row.distilled,
                f"${row.cost:.4f}",
                row.retries,
                row.failures,
                row.quarantined,
            )
            lines.append(
                " ".join(
                    str(value).rjust(width)
                    for value, (_, width) in zip(values, _COLUMNS)
                )
            )
        return "\n".join(lines)
