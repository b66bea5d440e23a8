"""Tests for the logical rewriter."""

from __future__ import annotations

from repro.core.compiler.rewriter import rewrite_pipeline
from repro.core.dsl.builder import PipelineBuilder
from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.dsl.pipeline import Pipeline


class TestRewriter:
    def make_chain(self, *kinds_params) -> Pipeline:
        builder = PipelineBuilder("p")
        builder.load(source="values")
        for kind, params in kinds_params:
            builder.add(kind, **params)
        builder.save(key="out")
        return builder.build()

    def test_fuses_duplicate_dedupes(self):
        pipeline = self.make_chain(
            (OperatorKind.DEDUPE, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
        )
        rewritten, report = rewrite_pipeline(pipeline)
        assert len(rewritten.operators) == len(pipeline.operators) - 1
        assert any("fused" in rule for rule in report.applied)

    def test_fuses_duplicate_clean_text(self):
        pipeline = self.make_chain(
            (OperatorKind.CLEAN_TEXT, {"impl": "custom"}),
            (OperatorKind.CLEAN_TEXT, {"impl": "custom"}),
        )
        rewritten, _ = rewrite_pipeline(pipeline)
        kinds = [op.kind for op in rewritten.topological_order()]
        assert kinds.count(OperatorKind.CLEAN_TEXT) == 1

    def test_different_params_not_fused(self):
        pipeline = self.make_chain(
            (OperatorKind.CLEAN_TEXT, {"impl": "custom"}),
            (OperatorKind.CLEAN_TEXT, {"impl": "llmgc"}),
        )
        rewritten, report = rewrite_pipeline(pipeline)
        assert report.applied == []
        assert len(rewritten.operators) == len(pipeline.operators)

    def test_pushes_filter_below_dedupe(self):
        predicate = lambda r: True  # noqa: E731
        pipeline = self.make_chain(
            (OperatorKind.DEDUPE, {"impl": "custom"}),
            (OperatorKind.FILTER, {"predicate": predicate}),
        )
        rewritten, report = rewrite_pipeline(pipeline)
        kinds = [op.kind for op in rewritten.topological_order()]
        assert kinds.index(OperatorKind.FILTER) < kinds.index(OperatorKind.DEDUPE)
        assert any("pushed filter" in rule for rule in report.applied)

    def test_filter_not_pushed_past_impure_transform(self):
        pipeline = self.make_chain(
            (OperatorKind.TRANSFORM, {"fn": lambda x: x}),
            (OperatorKind.FILTER, {"predicate": lambda r: True}),
        )
        _, report = rewrite_pipeline(pipeline)
        assert report.applied == []

    def test_filter_pushed_past_pure_transform(self):
        pipeline = self.make_chain(
            (OperatorKind.TRANSFORM, {"fn": lambda x: x}),
            (OperatorKind.FILTER, {"predicate": lambda r: True, "pure": True}),
        )
        _, report = rewrite_pipeline(pipeline)
        assert any("pushed filter" in rule for rule in report.applied)

    def test_branching_dag_untouched(self):
        pipeline = Pipeline("dag")
        pipeline.add(LogicalOperator("src", OperatorKind.LOAD))
        pipeline.add(LogicalOperator("a", OperatorKind.DEDUPE, {"impl": "custom"}, ["src"]))
        pipeline.add(LogicalOperator("b", OperatorKind.DEDUPE, {"impl": "custom"}, ["src"]))
        pipeline.add(LogicalOperator("j", OperatorKind.CUSTOM, {"fn": lambda v: v}, ["a", "b"]))
        rewritten, report = rewrite_pipeline(pipeline)
        assert rewritten is pipeline
        assert report.applied == []

    def test_rewritten_pipeline_still_executes(self, system):
        pipeline = self.make_chain(
            (OperatorKind.CLEAN_TEXT, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
        )
        plan = system.compile(pipeline, optimize=True)
        assert system.compiler.last_rewrite is not None
        assert system.compiler.last_rewrite.applied
        report = plan.execute({"values": ["A", "a ", "b"]})
        assert next(iter(report.outputs.values())) == ["a", "b"]

    def test_rewrite_preserves_semantics(self, system):
        values = ["X", "x", " y", "Y ", "z"]
        pipeline_plain = self.make_chain(
            (OperatorKind.CLEAN_TEXT, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
        )
        out_plain = next(
            iter(system.run(pipeline_plain, {"values": values}).outputs.values())
        )
        pipeline_opt = self.make_chain(
            (OperatorKind.CLEAN_TEXT, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
            (OperatorKind.DEDUPE, {"impl": "custom"}),
        )
        plan = system.compile(pipeline_opt, optimize=True)
        out_opt = next(iter(plan.execute({"values": values}).outputs.values()))
        assert out_plain == out_opt
