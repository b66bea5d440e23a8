"""Tests for profiling, anomaly detection and the LLM-spend ledger table."""

from __future__ import annotations

import pytest

from repro.llm.service import LLMService
from repro.storage.database import Database
from repro.storage.table import Table
from repro.tasks.profiling import detect_anomalies, profile_table, summarize_table


def make_orders(extra_rows=()) -> Table:
    rows = [
        {"price": 10.0 + i * 0.1, "status": "ok", "note": None} for i in range(30)
    ]
    rows.extend(extra_rows)
    return Table.from_records("orders", rows)


class TestProfile:
    def test_row_and_column_counts(self):
        profile = profile_table(make_orders())
        assert profile.row_count == 30
        assert [c.name for c in profile.columns] == ["price", "status", "note"]

    def test_numeric_stats(self):
        profile = profile_table(make_orders())
        price = profile.column("price")
        assert price.minimum == pytest.approx(10.0)
        assert price.maximum == pytest.approx(12.9)
        assert price.null_count == 0

    def test_null_counting(self):
        profile = profile_table(make_orders())
        assert profile.column("note").null_count == 30

    def test_top_values_for_text(self):
        profile = profile_table(make_orders())
        status = profile.column("status")
        assert status.top_values[0] == ("ok", 30)

    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            profile_table(make_orders()).column("ghost")

    def test_text_rendering(self):
        text = profile_table(make_orders()).to_text()
        assert "orders" in text and "price" in text


class TestAnomalies:
    def test_numeric_outlier_found(self):
        table = make_orders([{"price": 900.0, "status": "ok", "note": None}])
        anomalies = detect_anomalies(table)
        assert any(
            a.kind == "numeric_outlier" and a.value == 900.0 for a in anomalies
        )

    def test_rare_category_found(self):
        table = make_orders([{"price": 11.0, "status": "CORRUPT", "note": None}])
        anomalies = detect_anomalies(table)
        assert any(
            a.kind == "rare_category" and a.value == "CORRUPT" for a in anomalies
        )

    def test_clean_table_has_no_anomalies(self):
        assert detect_anomalies(make_orders()) == []

    def test_small_tables_skipped(self):
        tiny = Table.from_records("t", [{"x": 1.0}, {"x": 99999.0}])
        assert detect_anomalies(tiny) == []

    def test_free_text_columns_not_flagged(self):
        rows = [{"comment": f"unique comment {i}"} for i in range(30)]
        table = Table.from_records("c", rows)
        assert detect_anomalies(table) == []

    def test_ranked_by_score(self):
        table = make_orders(
            [
                {"price": 500.0, "status": "ok", "note": None},
                {"price": 900.0, "status": "ok", "note": None},
            ]
        )
        anomalies = [a for a in detect_anomalies(table) if a.kind == "numeric_outlier"]
        assert anomalies[0].value == 900.0

    def test_describe_mentions_location(self):
        table = make_orders([{"price": 900.0, "status": "ok", "note": None}])
        description = detect_anomalies(table)[0].describe()
        assert "price[30]" in description


class TestSummarizeAndLedger:
    def test_summary_comes_from_profile_not_rows(self):
        service = LLMService()
        summary = summarize_table(make_orders(), service)
        assert summary
        # Only one (aggregate) prompt was sent, and no cell row dump.
        assert service.usage().served_calls == 1
        assert "10.1" not in service.records[0].prompt  # raw cells absent

    def test_ledger_table_queryable_with_sql(self):
        service = LLMService()
        service.complete("summarize alpha", purpose="a")
        service.complete("summarize beta", purpose="b")
        service.complete("summarize alpha", purpose="a")  # cache hit
        db = Database()
        db.register(service.ledger_table())
        result = db.query(
            "SELECT purpose, COUNT(*) AS n FROM llm_ledger GROUP BY purpose ORDER BY purpose"
        )
        assert result.records() == [{"purpose": "a", "n": 2}, {"purpose": "b", "n": 1}]
        cached = db.query("SELECT COUNT(*) AS n FROM llm_ledger WHERE cached = TRUE")
        assert cached.records() == [{"n": 1}]
