"""Unit tests for the run profiler (repro.obs.profile)."""

import pytest

from repro.llm.service import CallRecord
from repro.obs import ProfileRow, RunProfile, profile_records
from repro.resilience.policy import (
    OUTCOME_CACHED,
    OUTCOME_GAVE_UP,
    OUTCOME_RETRIED,
    OUTCOME_SERVED,
)


def record(**overrides) -> CallRecord:
    payload = dict(
        prompt="p",
        response_text="r",
        prompt_tokens=10,
        completion_tokens=5,
        cost=0.01,
        cached=False,
        skill="s",
        purpose="match",
        latency_seconds=1.5,
        retries=0,
        outcome=OUTCOME_SERVED,
        provenance="provider",
    )
    payload.update(overrides)
    return CallRecord(**payload)


class TestProfileRecords:
    def test_provider_and_cache_split(self):
        rows = [
            record(),
            record(cached=True, cost=0.0, outcome=OUTCOME_CACHED,
                   provenance="cache-exact"),
            record(cached=True, cost=0.0, outcome=OUTCOME_CACHED,
                   provenance="distilled"),
        ]
        row = profile_records("m", rows, quarantined=2)
        assert row.calls == 3
        assert row.provider_calls == 1
        assert (row.cache_exact, row.distilled) == (1, 1)
        assert row.cached_calls == 2
        assert row.quarantined == 2
        assert row.cost == pytest.approx(0.01)

    def test_provider_and_distilled_time_split(self):
        rows = [
            record(latency_seconds=2.0),
            record(cached=True, cost=0.0, outcome=OUTCOME_CACHED,
                   provenance="cache-exact", latency_seconds=0.0),
            record(cached=True, cost=0.0, outcome=OUTCOME_CACHED,
                   provenance="distilled", latency_seconds=0.25),
        ]
        row = profile_records("m", rows)
        assert row.provider_seconds == pytest.approx(2.0)
        assert row.distilled_seconds == pytest.approx(0.25)
        # The overall latency column still counts every record.
        assert row.latency_seconds == pytest.approx(2.25)

    def test_failures_fallbacks_retries(self):
        rows = [
            record(retries=2, outcome=OUTCOME_RETRIED),
            record(),
            record(outcome=OUTCOME_GAVE_UP, cost=0.0, retries=3),
        ]
        row = profile_records("m", rows)
        assert row.retries == 5
        assert row.failures == 1
        # retried answers still count as provider calls; failures do not
        assert row.provider_calls == 2

    def test_empty_slice(self):
        row = profile_records("m", [])
        assert row == ProfileRow(module="m")


class TestRunProfile:
    def make(self) -> RunProfile:
        return RunProfile(
            rows=[
                profile_records("a", [record(), record()]),
                profile_records(
                    "b",
                    [record(cached=True, cost=0.0, outcome=OUTCOME_CACHED,
                            provenance="cache-exact", latency_seconds=0.0)],
                ),
            ]
        )

    def test_one_row_per_module(self):
        profile = self.make()
        by_module = {row.module: row for row in profile.rows}
        assert len(by_module) == len(profile.rows)
        assert by_module["a"].calls == 2 and "nope" not in by_module

    def test_totals_sum_columns(self):
        totals = self.make().totals()
        assert totals.module == "TOTAL"
        assert totals.calls == 3
        assert totals.provider_calls == 2
        assert totals.cache_exact == 1
        assert totals.cost == pytest.approx(0.02)

    def test_to_table_contains_rows_and_totals(self):
        table = self.make().to_table()
        assert "a" in table and "b" in table and "TOTAL" in table
        header = table.splitlines()[0]
        assert "provider" in header and "quarantined" in header

    def test_to_dict_rounds_cost_fields(self):
        payload = self.make().to_dict()
        assert payload[0]["module"] == "a"
        assert payload[0]["cost"] == round(0.02, 10)
