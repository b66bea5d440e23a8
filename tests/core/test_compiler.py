"""Tests for the compiler, registry, plans and templates."""

from __future__ import annotations

import pytest

from repro.core.compiler.explain import explain_pipeline, render_architecture
from repro.core.compiler.registry import CompileError, build_module, strategies_for
from repro.core.dsl.builder import PipelineBuilder
from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.modules.cascade import CascadeModule
from repro.core.optimizer.distill import DistillationRouter
from repro.core.optimizer.validator import TestCase
from repro.core.templates.library import (
    available_templates,
    get_template,
    search_templates,
)


class TestRegistry:
    def test_strategies_registered_for_every_kind(self):
        for kind in OperatorKind.ALL:
            assert strategies_for(kind), f"no strategies for {kind}"

    def test_impl_param_selects_strategy(self, context):
        op = LogicalOperator("c", OperatorKind.CLEAN_TEXT, params={"impl": "custom"})
        module = build_module(op, context)
        assert module.run(["A  B"]) == ["a b"]

    def test_unknown_impl_rejected(self, context):
        op = LogicalOperator("c", OperatorKind.CLEAN_TEXT, params={"impl": "quantum"})
        with pytest.raises(CompileError):
            build_module(op, context)

    def test_load_requires_source(self, context):
        op = LogicalOperator("l", OperatorKind.LOAD)
        module = build_module(op, context)
        with pytest.raises(Exception):
            module.run({})

    def test_filter_requires_callable(self, context):
        op = LogicalOperator("f", OperatorKind.FILTER, params={"predicate": "nope"})
        with pytest.raises(CompileError):
            build_module(op, context)

    def test_classify_requires_choices(self, context):
        with pytest.raises(CompileError):
            build_module(LogicalOperator("c", OperatorKind.CLASSIFY), context)


class TestCompileAndExecute:
    def test_simple_pipeline_runs(self, system):
        pipeline = (
            PipelineBuilder("p")
            .load(source="values")
            .clean_text(impl="custom")
            .dedupe(impl="custom")
            .save(key="out")
            .build()
        )
        report = system.run(pipeline, {"values": ["A", "a", "B "]})
        assert report.outputs[pipeline.sinks()[0].name] == ["a", "b"]

    def test_multi_input_operator_receives_tuple(self, system):
        pipeline = (
            PipelineBuilder("p")
            .add(OperatorKind.LOAD, name="a", inputs=[], source="x")
            .add(OperatorKind.LOAD, name="b", inputs=[], source="y")
            .add(
                OperatorKind.CUSTOM,
                name="j",
                inputs=["a", "b"],
                fn=lambda pair: list(pair[0]) + list(pair[1]),
            )
            .build()
        )
        report = system.run(pipeline, {"x": [1], "y": [2]})
        assert report.outputs["j"] == [1, 2]

    def test_missing_input_key_raises(self, system):
        pipeline = PipelineBuilder("p").load(source="nope").build()
        with pytest.raises(Exception, match="nope"):
            system.run(pipeline, {})

    def test_save_writes_csv(self, system, tmp_path):
        out = tmp_path / "out.csv"
        pipeline = (
            PipelineBuilder("p").load(source="rows").save(path=str(out)).build()
        )
        system.run(pipeline, {"rows": [{"a": 1}, {"a": 2}]})
        assert out.read_text().startswith("a\n")

    def test_save_writes_json(self, system, tmp_path):
        out = tmp_path / "out.json"
        pipeline = PipelineBuilder("p").load(source="rows").save(path=str(out)).build()
        system.run(pipeline, {"rows": [1, 2, 3]})
        assert out.read_text().strip().startswith("[")

    def test_run_report_includes_cost_and_stats(self, system):
        pipeline = (
            PipelineBuilder("p")
            .load(source="docs")
            .detect_language(impl="llm")
            .save(key="out")
            .build()
        )
        report = system.run(pipeline, {"docs": [{"text": "hola amigo ayer"}]})
        assert report.cost is not None
        assert report.cost.served_calls >= 1
        assert any("invocations=1" in s for s in report.module_stats.values())

    def test_plan_to_text_shows_bindings(self, system):
        pipeline = PipelineBuilder("p").load(source="x").save(key="o").build()
        plan = system.compile(pipeline)
        text = plan.to_text()
        assert "load" in text and "=>" in text


class TestValidatorAttachment:
    def test_validator_cases_repair_at_compile_time(self, system):
        cases = [
            TestCase("John met Mary.", ["John", "met", "Mary", "."]),
        ]
        pipeline = (
            PipelineBuilder("p")
            .load(source="docs")
            .tokenize(impl="llmgc", validator_cases=cases)
            .save(key="out")
            .build()
        )
        plan = system.compile(pipeline)
        assert system.compiler.validation_reports[-1].passed is True
        report = plan.execute({"docs": [{"text": "A b."}]})
        tokens = report.outputs[pipeline.sinks()[0].name][0]["tokens"]
        assert tokens == ["A", "b", "."]

    def test_non_testcase_cases_rejected(self, system):
        pipeline = (
            PipelineBuilder("p")
            .load(source="docs")
            .tokenize(impl="llmgc", validator_cases=["not a case"])
            .save(key="out")
            .build()
        )
        with pytest.raises(CompileError):
            system.compile(pipeline)


#: placement -> (builder step, its params, where the student must sit)
PLACEMENTS = {
    "tagger_holder": ("tag_names", {}, lambda m: m.inner.tagger_holder["tagger"]),
    "map": ("transform", {"fn": lambda x: x * 2}, lambda m: m.inner),
    "map_over_cascade": ("quality_filter", {}, lambda m: m.inner.teacher),
    "enrich": ("detect_language", {"impl": "llm", "map": False}, lambda m: m.stage),
    "bare": ("match_entities", {"impl": "llm", "map": False}, lambda m: m),
}


class TestSimulatorAttachment:
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_simulate_places_the_student(self, system, placement):
        step, params, student_of = PLACEMENTS[placement]
        builder = PipelineBuilder("p").load(source="items")
        getattr(builder, step)(simulate=True, **params)
        pipeline = builder.save(key="out").build()
        module = system.compile(pipeline).module(pipeline.operators[1].name)
        student = student_of(module)
        assert isinstance(student, DistillationRouter)
        assert not isinstance(student.teacher, (DistillationRouter, CascadeModule))
        if placement == "map_over_cascade":
            # The student sits behind the free rule rung, never in front of
            # it: a document the rule decides is not shown to it.
            cascade = module.inner
            assert not cascade.escalates({"text": "zzz"})
            cascade.run({"text": "zzz"})
            assert cascade.rule_decisions == 1 and cascade.escalations == 0
            assert student.distill_stats.total == 0


class TestTemplates:
    def test_all_templates_instantiate_and_validate(self):
        for template in available_templates():
            # sample_args supplies the minimal required parameters for
            # templates that have them (e.g. decontamination's eval_items).
            pipeline = template.instantiate(**template.sample_args)
            pipeline.validate()

    def test_search_finds_er(self):
        hits = search_templates("find duplicate records same entity")
        assert hits[0][0].name == "entity_resolution"

    def test_search_finds_imputation(self):
        hits = search_templates("fill missing manufacturer values")
        assert hits[0][0].name == "data_imputation"

    def test_search_finds_name_extraction(self):
        hits = search_templates("extract person names from text")
        assert hits[0][0].name == "name_extraction"

    def test_search_no_match_returns_empty(self):
        assert search_templates("qqq zzz xxx") == []

    def test_get_template_unknown_raises(self):
        with pytest.raises(KeyError):
            get_template("nonexistent")

    def test_name_extraction_variants(self):
        multilingual = get_template("name_extraction").instantiate(multilingual=True)
        monolingual = get_template("name_extraction").instantiate(multilingual=False)
        kinds_multi = [op.kind for op in multilingual.topological_order()]
        kinds_mono = [op.kind for op in monolingual.topological_order()]
        assert "detect_language" in kinds_multi
        assert "detect_language" not in kinds_mono


class TestExplain:
    def test_explain_pipeline_draws_boxes(self):
        pipeline = get_template("entity_resolution").instantiate()
        art = explain_pipeline(pipeline)
        assert "match_entities" in art and "|" in art

    def test_architecture_rendering(self):
        art = render_architecture()
        assert "LINGUA MANGA" in art
        assert "Optimizer" in art
