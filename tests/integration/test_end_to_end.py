"""Integration tests: full system flows matching the paper's demonstration."""

from __future__ import annotations

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.storage.table import Table
from repro.ui.views import render_screen


class TestNoviceFlow:
    """Section 4.1: template search -> instantiate -> run, zero code."""

    def test_search_instantiate_run(self, system):
        hits = system.search_templates("find records that are the same entity")
        assert hits
        pipeline = hits[0][0].instantiate()
        pairs = [
            {
                "left": {"name": "Stone IPA", "brewery": "Stone Brewing"},
                "right": {"name": "Stone IPA", "brewery": "Stone Brewing Co."},
            }
        ]
        report = system.run(pipeline, {"pairs": pairs})
        verdicts = next(iter(report.outputs.values()))
        assert verdicts == [True]


class TestAdeptFlow:
    """Section 4.2: the Figure 3 pipeline with validator-repaired LLMGC."""

    def test_pipeline_enriches_documents(self, system):
        pipeline = get_template("name_extraction").instantiate()
        docs = [{"text": "Yesterday John Smith met Maria de la Cruz in Boston."}]
        report = system.run(pipeline, {"documents": docs})
        enriched = next(iter(report.outputs.values()))[0]
        assert set(enriched) >= {"text", "tokens", "language", "phrases", "names"}
        assert "John Smith" in enriched["names"]
        assert "Boston" not in enriched["names"]

    def test_validator_repaired_chunker_during_compile(self, system):
        pipeline = get_template("name_extraction").instantiate()
        system.compile(pipeline)
        reports = system.compiler.validation_reports
        assert any(r.rounds > 0 and r.passed for r in reports)


class TestExpertFlow:
    """Section 4.3: hybrid imputation via the template."""

    def test_hybrid_escalates_only_hard_records(self, system):
        pipeline = get_template("data_imputation").instantiate()
        # Compile first: the validator's compile-time test cases also make
        # one escalation call, which must not be confused with run traffic.
        plan = system.compile(pipeline)
        before = system.usage("impute_2-escalation").served_calls
        records = [
            {"name": "Sony Walkman Player X1", "description": "player", "manufacturer": None},
            {"name": "PlayStation Controller Y2", "description": "pad", "manufacturer": None},
        ]
        report = plan.execute({"records": records})
        imputed = next(iter(report.outputs.values()))
        assert imputed == ["Sony", "Sony"]
        after = system.usage("impute_2-escalation").served_calls
        assert after - before == 1  # only the brand-less record escalated


class TestDslRoundTrip:
    def test_parse_compile_execute(self, system):
        dsl = '''
        pipeline "cleanup":
          raw = load(source="values")
          c   = clean_text(input=raw, impl="custom")
          d   = dedupe(input=c, impl="custom")
          save(input=d, key="out")
        '''
        pipeline = system.parse(dsl)
        report = system.run(pipeline, {"values": ["A", " a", "b"]})
        assert report.outputs["save_1"] == ["a", "b"]


class TestConnectorFlow:
    def test_nl_question_answered_without_data_upload(self, system):
        system.register_table(
            Table.from_records(
                "sales",
                [{"region": "east", "amount": 10.0}, {"region": "west", "amount": 30.0}],
            )
        )
        connector = system.connector()
        answer = connector.ask("How many sales have amount over 20?")
        assert answer.result.records()[0]["n"] == 1
        # Only the schema and one result row ever reached the prompt side.
        assert connector.report.values_uploaded <= 2


class TestUsageAccounting:
    def test_system_usage_reflects_runs(self, system):
        pipeline = get_template("entity_resolution").instantiate()
        system.run(
            pipeline,
            {"pairs": [{"left": {"name": "a"}, "right": {"name": "a"}}]},
        )
        assert system.usage().served_calls >= 1
        system.reset_usage()
        assert system.usage().total_calls == 0


class TestUiIntegration:
    def test_full_screen_after_run(self, system):
        pipeline = get_template("entity_resolution").instantiate()
        plan = system.compile(pipeline)
        report = plan.execute(
            {"pairs": [{"left": {"name": "x"}, "right": {"name": "y"}}]}
        )
        screen = render_screen(plan, report)
        assert "entity_resolution_template" in screen
        assert "LLM usage" in screen


class TestFreshSystemsAreIndependent:
    def test_no_shared_state_between_instances(self):
        a = LinguaManga()
        b = LinguaManga()
        a.service.complete("summarize something")
        assert b.usage().total_calls == 0
