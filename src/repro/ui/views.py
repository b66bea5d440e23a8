"""Text views of the Lingua Manga UI (paper Figure 5).

The demo paper shows a browser UI with a pipeline canvas, a module
inspector, and a run log.  This reproduction renders the same three panels
as fixed-width text so the whole experience works in a terminal and in
tests.  Views are pure functions of system state — no interactivity is
simulated, only the screens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiler.plan import PhysicalPlan, RunReport
from repro.core.dsl.pipeline import Pipeline
from repro.core.modules.base import Module
from repro.llm.service import LLMService

__all__ = [
    "PipelineCanvasView",
    "ModuleInspectorView",
    "RunLogView",
    "UsagePanelView",
    "ProfilePanelView",
    "render_screen",
]


def _box(title: str, body_lines: list[str], width: int = 72) -> str:
    inner = width - 2
    top = "+" + "-" * inner + "+"
    head = "|" + f" {title} ".center(inner, "=") + "|"
    rows = []
    for line in body_lines:
        for chunk in _wrap(line, inner - 2):
            rows.append("| " + chunk.ljust(inner - 2) + " |")
    return "\n".join([top, head] + rows + [top])


def _wrap(line: str, width: int) -> list[str]:
    if not line:
        return [""]
    return [line[i : i + width] for i in range(0, len(line), width)]


@dataclass
class PipelineCanvasView:
    """The canvas panel: operators as boxes joined by arrows."""

    pipeline: Pipeline

    def render(self) -> str:
        """Render the canvas."""
        lines: list[str] = []
        operators = self.pipeline.topological_order()
        for index, op in enumerate(operators):
            lines.append(f"[{op.name}]  kind={op.kind}")
            hints = {
                k: v
                for k, v in op.params.items()
                if k in ("impl", "simulate", "use_language")
            }
            if "validator_cases" in op.params:
                hints["validator"] = f"{len(op.params['validator_cases'])} cases"
            if hints:
                lines.append(
                    "    " + ", ".join(f"{k}={v}" for k, v in sorted(hints.items()))
                )
            if index < len(operators) - 1:
                lines.append("      |")
                lines.append("      v")
        return _box(f"pipeline: {self.pipeline.name}", lines)


@dataclass
class ModuleInspectorView:
    """The inspector panel: one module's type, stats and internals."""

    module: Module

    def render(self) -> str:
        """Render the inspector."""
        lines = [
            f"name: {self.module.name}",
            f"type: {self.module.module_type}",
            f"stats: {self.module.stats.to_text()}",
            f"describe: {self.module.describe()}",
        ]
        source = getattr(self.module, "source", None)
        if source:
            lines.append("generated code:")
            lines.extend("  " + code_line for code_line in source.strip().splitlines())
        return _box(f"module: {self.module.name}", lines)


@dataclass
class RunLogView:
    """The run panel: per-operator stats and cost of the last execution."""

    report: RunReport

    def render(self) -> str:
        """Render the run log."""
        lines = [f"pipeline: {self.report.pipeline_name}"]
        for name, stats in self.report.module_stats.items():
            lines.append(f"{name}: {stats}")
        if self.report.cost is not None:
            lines.append(f"cost: {self.report.cost.to_text()}")
        for sink, value in self.report.outputs.items():
            preview = repr(value)
            lines.append(f"output[{sink}]: {preview[:120]}")
        return _box("run log", lines)


@dataclass
class ProfilePanelView:
    """The profiler panel: the run's per-module cost/provenance table."""

    report: RunReport

    def render(self) -> str:
        """Render the profile table (empty box when the run has no profile)."""
        profile = self.report.profile
        if profile is None or not profile.rows:
            return _box("run profile", ["(no profile collected)"])
        return _box("run profile", profile.to_table().splitlines(), width=110)


@dataclass
class UsagePanelView:
    """The footer: cumulative LLM usage of the session."""

    service: LLMService

    def render(self) -> str:
        """Render the usage footer."""
        lines = [self.service.usage().to_text()]
        for purpose in sorted({record.purpose for record in self.service.records}):
            usage = self.service.usage(purpose)
            # Provider-path calls, failed ones included: not cache answers.
            calls = usage.total_calls - usage.cached_calls
            if calls:
                lines.append(f"  {purpose}: {calls} calls")
        return _box("LLM usage", lines)


def render_screen(
    plan: PhysicalPlan,
    report: RunReport | None = None,
    inspect: str | None = None,
) -> str:
    """Compose the full Figure 5 screen for a compiled plan.

    ``inspect`` selects an operator whose module inspector panel is shown.
    """
    panels = [PipelineCanvasView(plan.pipeline).render()]
    if inspect is not None:
        panels.append(ModuleInspectorView(plan.module(inspect)).render())
    if report is not None:
        panels.append(RunLogView(report).render())
        if report.profile is not None and report.profile.rows:
            panels.append(ProfilePanelView(report).render())
    panels.append(UsagePanelView(plan.context.service).render())
    return "\n\n".join(panels)
