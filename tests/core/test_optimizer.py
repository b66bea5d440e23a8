"""Tests for the optimizer: validator, connector, cost model.

The simulator (``DistillationRouter``) is tested in ``test_distill.py``.
"""

from __future__ import annotations

import pytest

from repro.core.modules.custom import CustomModule
from repro.core.modules.llmgc import LLMGCModule
from repro.core.optimizer.connector import ConnectorPolicyError, TabularConnector
from repro.core.optimizer.cost import CostComparison, CostSnapshot, CostTracker
from repro.core.optimizer.validator import ModuleValidator, TestCase
from repro.storage.database import Database
from repro.storage.table import Table


class TestValidator:
    def tokenize_cases(self) -> list[TestCase]:
        return [
            TestCase("John met Mary.", ["John", "met", "Mary", "."], name="punct"),
            TestCase("He said hi", ["He", "said", "hi"], name="plain"),
        ]

    def test_repair_loop_fixes_tokenizer(self, service):
        module = LLMGCModule("tok", service, "tokenize a sentence into words")
        validator = ModuleValidator(service, self.tokenize_cases())
        report = validator.validate_and_repair(module)
        assert report.passed is True
        assert report.rounds >= 1  # revision 0 fails the punctuation case
        assert module.revision >= 1

    def test_passing_module_needs_no_rounds(self, service):
        module = CustomModule("split", lambda text: text.split())
        validator = ModuleValidator(service, [TestCase("a b", ["a", "b"])])
        report = validator.validate_and_repair(module)
        assert report.passed is True and report.rounds == 0

    def test_failing_custom_module_cannot_be_repaired(self, service):
        module = CustomModule("bad", lambda text: [])
        validator = ModuleValidator(service, [TestCase("a", ["a"])])
        report = validator.validate_and_repair(module)
        assert report.passed is False
        assert report.rounds == 0
        assert len(report.failures) == 1

    def test_exception_in_module_is_a_failure_not_a_crash(self, service):
        module = CustomModule("boom", lambda text: 1 / 0)
        validator = ModuleValidator(service, [TestCase("a", ["a"])])
        report = validator.validate_and_repair(module)
        assert report.passed is False
        assert "division by zero" in report.failures[0].error

    def test_custom_comparator(self, service):
        case = TestCase("abc", 3, comparator=lambda actual, expected: len(actual) == expected)
        validator = ModuleValidator(service, [case])
        module = CustomModule("id", lambda text: text)
        assert validator.validate_and_repair(module).passed is True

    def test_unfixable_task_exhausts_timeouts(self, service):
        # The dedupe candidate can never satisfy an impossible expectation.
        module = LLMGCModule("d", service, "remove duplicate records")
        validator = ModuleValidator(
            service, [TestCase([{"a": 1}], "impossible")], max_rounds=2, max_regenerations=1
        )
        report = validator.validate_and_repair(module)
        assert report.passed is False
        assert report.rounds == 4  # 2 rounds, regeneration, 2 more rounds
        assert report.regenerations == 1

    def test_history_tracks_failure_counts(self, service):
        module = LLMGCModule("tok", service, "tokenize text into words")
        validator = ModuleValidator(service, self.tokenize_cases())
        report = validator.validate_and_repair(module)
        assert report.history[0][1] > 0  # initial failures
        assert report.history[-1][1] == 0  # fixed

    def test_no_cases_rejected(self, service):
        with pytest.raises(ValueError):
            ModuleValidator(service, [])

    def test_report_rendering(self, service):
        module = CustomModule("bad", lambda text: [])
        report = ModuleValidator(service, [TestCase("a", ["a"])]).validate_and_repair(module)
        assert "FAILED" in report.to_text()


class TestConnector:
    @pytest.fixture()
    def db(self) -> Database:
        database = Database()
        database.register(
            Table.from_records(
                "products",
                [
                    {"id": i, "name": f"item {i}", "price": float(10 * i)}
                    for i in range(1, 11)
                ],
            )
        )
        return database

    def test_ask_count_question(self, service, db):
        connector = TabularConnector(db, service)
        answer = connector.ask("How many products have price over 50?")
        assert answer.result.records()[0]["n"] == 5
        assert "SELECT" in answer.sql

    def test_exposure_capped_by_max_rows(self, service, db):
        connector = TabularConnector(db, service, max_result_rows=3)
        answer = connector.ask("Show the name of all products")
        assert len(answer.result) <= 3
        assert connector.report.rows_uploaded <= 3

    def test_policy_blocks_delete(self, service, db):
        connector = TabularConnector(db, service)
        with pytest.raises(ConnectorPolicyError):
            connector.run_user_sql("DELETE FROM products")
        assert connector.report.rejected_statements == 1

    def test_policy_blocks_disallowed_table(self, service, db):
        connector = TabularConnector(db, service, allowed_tables=["other"])
        with pytest.raises(ConnectorPolicyError):
            connector.run_user_sql("SELECT * FROM products")

    def test_user_sql_select_allowed(self, service, db):
        connector = TabularConnector(db, service)
        result = connector.run_user_sql("SELECT COUNT(*) AS n FROM products")
        assert result.records() == [{"n": 10}]

    def test_schema_upload_counted(self, service, db):
        connector = TabularConnector(db, service)
        connector.ask("How many products are there?")
        assert connector.report.schema_uploads == 1

    def test_extract_sql_from_fenced_response(self):
        sql = TabularConnector._extract_sql("```sql\nSELECT 1 FROM t;\n```")
        assert sql == "SELECT 1 FROM t"

    def test_extract_sql_from_prose(self):
        sql = TabularConnector._extract_sql("Sure! SELECT a FROM t WHERE x = 1")
        assert sql.startswith("SELECT a")


class TestCostTracking:
    def test_tracker_measures_delta(self, service):
        service.complete("summarize warm-up call")
        with CostTracker(service) as tracker:
            service.complete("summarize tracked call")
        assert tracker.snapshot.served_calls == 1
        assert tracker.snapshot.cost > 0

    def test_tracker_counts_cache_hits_separately(self, service):
        service.complete("summarize x")
        with CostTracker(service) as tracker:
            service.complete("summarize x")
        assert tracker.snapshot.served_calls == 0
        assert tracker.snapshot.cached_calls == 1

    def test_comparison_ratio(self):
        comparison = CostComparison(
            "baseline",
            CostSnapshot(60, 0, 0.06, 1.0),
            "optimized",
            CostSnapshot(10, 0, 0.01, 0.2),
        )
        assert comparison.call_ratio() == pytest.approx(1 / 6)
        assert "1/6" in comparison.to_text()

    def test_comparison_zero_baseline(self):
        comparison = CostComparison(
            "b", CostSnapshot(0, 0, 0.0, 0.0), "o", CostSnapshot(0, 0, 0.0, 0.0)
        )
        assert comparison.call_ratio() == 0.0
