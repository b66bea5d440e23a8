"""Tests for the terminal UI views (paper Figure 5)."""

from __future__ import annotations

from repro.core.dsl.builder import PipelineBuilder
from repro.core.templates.library import get_template
from repro.ui.views import (
    ModuleInspectorView,
    PipelineCanvasView,
    RunLogView,
    UsagePanelView,
    render_screen,
)


def simple_pipeline():
    return (
        PipelineBuilder("demo")
        .load(source="values")
        .clean_text(impl="custom")
        .save(key="out")
        .build()
    )


class TestPipelineCanvas:
    def test_canvas_shows_all_operators(self):
        canvas = PipelineCanvasView(simple_pipeline()).render()
        for kind in ("load", "clean_text", "save"):
            assert kind in canvas

    def test_canvas_shows_hints(self):
        canvas = PipelineCanvasView(get_template("data_imputation").instantiate()).render()
        assert "impl=llmgc" in canvas
        assert "validator=" in canvas

    def test_canvas_is_boxed(self):
        canvas = PipelineCanvasView(simple_pipeline()).render()
        lines = canvas.splitlines()
        assert lines[0].startswith("+") and lines[-1].startswith("+")
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly rectangular


class TestModuleInspector:
    def test_shows_stats_and_type(self, system):
        plan = system.compile(simple_pipeline())
        plan.execute({"values": ["A"]})
        view = ModuleInspectorView(plan.module("clean_text_2")).render()
        assert "invocations=1" in view
        assert "type:" in view

    def test_shows_generated_source_for_llmgc(self, system):
        pipeline = (
            PipelineBuilder("p")
            .load(source="docs")
            .tokenize(impl="llmgc")
            .save(key="out")
            .build()
        )
        plan = system.compile(pipeline)
        plan.execute({"docs": [{"text": "a b"}]})
        from repro.core.compiler.compiler import _innermost

        inner = _innermost(plan.module(pipeline.operators[1].name))
        view = ModuleInspectorView(inner).render()
        assert "def run(" in view


class TestRunLogAndUsage:
    def test_run_log_includes_outputs_and_cost(self, system):
        plan = system.compile(simple_pipeline())
        report = plan.execute({"values": ["A", "B"]})
        view = RunLogView(report).render()
        assert "output[" in view
        assert "cost:" in view

    def test_usage_panel_groups_by_purpose(self, system):
        system.service.complete("summarize alpha", purpose="p1")
        system.service.complete("summarize beta", purpose="p2")
        view = UsagePanelView(system.service).render()
        assert "p1: 1 calls" in view and "p2: 1 calls" in view


class TestFullScreen:
    def test_screen_composes_all_panels(self, system):
        plan = system.compile(simple_pipeline())
        report = plan.execute({"values": ["A"]})
        screen = render_screen(plan, report, inspect="clean_text_2")
        assert "pipeline: demo" in screen
        assert "module: clean_text_2" in screen
        assert "run log" in screen
        assert "LLM usage" in screen

    def test_screen_without_report(self, system):
        plan = system.compile(simple_pipeline())
        screen = render_screen(plan)
        assert "run log" not in screen
