"""Direct unit tests for EXPLAIN rendering (repro.core.compiler.explain).

The load-bearing assertion: the module sequence a traced run actually
executes is exactly the sequence ``explain_plan`` promises — EXPLAIN is a
contract with the runtime, not decoration.
"""

from __future__ import annotations

from repro.core.compiler.explain import (
    explain_pipeline,
    explain_plan,
    render_architecture,
)
from repro.core.dsl.builder import PipelineBuilder
from repro.core.runtime.system import LinguaManga
from repro.obs import Observability

from ..oracles import walk_spans


def make_pipeline():
    return (
        PipelineBuilder("explainable")
        .load(source="values")
        .clean_text(impl="custom")
        .dedupe(impl="custom")
        .save(key="out")
        .build()
    )


class TestExplainPipeline:
    def test_every_operator_boxed_in_topological_order(self):
        pipeline = make_pipeline()
        text = explain_pipeline(pipeline)
        assert text.startswith("Pipeline: explainable")
        positions = [
            text.index(f" {op.name} [{op.kind}] ")
            for op in pipeline.topological_order()
        ]
        assert positions == sorted(positions)

    def test_impl_hints_rendered(self):
        text = explain_pipeline(make_pipeline())
        assert "impl=custom" in text

    def test_arrows_join_consecutive_boxes(self):
        text = explain_pipeline(make_pipeline())
        operators = make_pipeline().operators
        assert text.count("      v") == len(operators) - 1


class TestExplainPlan:
    def test_explain_plan_is_the_plan_rendering(self):
        system = LinguaManga()
        plan = system.compile(make_pipeline())
        text = explain_plan(plan)
        assert text == plan.to_text()
        assert text.startswith("physical plan for 'explainable':")

    def test_binding_lines_follow_topological_order(self):
        system = LinguaManga()
        plan = system.compile(make_pipeline())
        lines = explain_plan(plan).splitlines()[1:]
        operator_names = [b.operator.name for b in plan.bound]
        assert [line.split(":")[0].strip() for line in lines] == operator_names

    def test_explain_matches_traced_module_sequence(self):
        # Compile, EXPLAIN, then actually run under the tracer: the phase
        # spans (one per operator) must appear in exactly the order the
        # EXPLAIN output promised, and each must contain its bound module.
        obs = Observability()
        system = LinguaManga(obs=obs)
        plan = system.compile(make_pipeline())
        explained = [b.operator.name for b in plan.bound]
        explained_modules = [b.module.name for b in plan.bound]

        plan.execute({"values": ["A", "a", "B "]})

        traced = [
            span.name
            for span, _ in walk_spans(obs.tracer.roots)
            if span.kind == "phase"
        ]
        assert traced == explained
        traced_modules = [
            span.name
            for span, _ in walk_spans(obs.tracer.roots)
            if span.kind == "module"
        ]
        assert traced_modules == explained_modules


class TestRenderArchitecture:
    def test_mentions_the_paper_components(self):
        text = render_architecture()
        for component in ("LINGUA MANGA", "Compiler", "Optimizer", "LLM service"):
            assert component in text

    def test_box_is_rectangular(self):
        lines = render_architecture().splitlines()
        assert len({len(line) for line in lines}) == 1
