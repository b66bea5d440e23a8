"""EXPLAIN-style rendering of pipelines and plans (Figures 1-4 in text)."""

from __future__ import annotations

from repro.core.compiler.plan import PhysicalPlan
from repro.core.dsl.pipeline import Pipeline

__all__ = ["explain_pipeline", "explain_plan", "render_architecture"]


def explain_pipeline(pipeline: Pipeline) -> str:
    """Boxed ASCII rendering of a logical pipeline (Figure 2/3/4 style)."""
    operators = pipeline.topological_order()
    boxes = []
    for op in operators:
        label = f" {op.name} [{op.kind}] "
        hints = [
            f"{key}={op.params[key]}"
            for key in ("impl", "simulate")
            if key in op.params
        ]
        if "validator_cases" in op.params:
            hints.append(f"validator({len(op.params['validator_cases'])} cases)")
        hint_line = f" {', '.join(hints)} " if hints else ""
        width = max(len(label), len(hint_line))
        lines = ["+" + "-" * width + "+", "|" + label.ljust(width) + "|"]
        if hint_line:
            lines.append("|" + hint_line.ljust(width) + "|")
        lines.append("+" + "-" * width + "+")
        boxes.append(lines)
    out = [f"Pipeline: {pipeline.name}"]
    if pipeline.description:
        out.append(f"  ({pipeline.description})")
    for index, box in enumerate(boxes):
        out.extend(box)
        if index < len(boxes) - 1:
            out.append("      |")
            out.append("      v")
    return "\n".join(out)


def explain_plan(plan: PhysicalPlan) -> str:
    """Logical-to-physical binding table."""
    return plan.to_text()


def render_architecture() -> str:
    """ASCII rendering of the system architecture (paper Figure 1)."""
    return "\n".join(
        [
            "+---------------------------------------------------------------+",
            "|                       LINGUA MANGA                            |",
            "|                                                               |",
            "|  user (NL / DSL / templates)                                  |",
            "|        |                                                      |",
            "|        v                                                      |",
            "|  +-----------+    +------------+    +----------------------+  |",
            "|  |   DSL     |--->|  Compiler  |--->|   Physical plan      |  |",
            "|  | pipelines |    | (registry) |    | custom/llm/llmgc/    |  |",
            "|  +-----------+    +------------+    | decorated modules    |  |",
            "|        ^                |           +----------------------+  |",
            "|        |                v                      |              |",
            "|  +-----------+    +------------+               v              |",
            "|  | Templates |    | Optimizer  |     +------------------+     |",
            "|  +-----------+    | validator  |<--->|   LLM service    |     |",
            "|                   | simulator  |     | (cache, retry,   |     |",
            "|                   | connector  |     |  ledger, hub)    |     |",
            "|                   +------------+     +------------------+     |",
            "|                         |                      |              |",
            "|                         v                      v              |",
            "|                  +--------------+      +--------------+       |",
            "|                  | local store  |      |  knowledge   |       |",
            "|                  | (SQL subset) |      |  (simulated) |       |",
            "|                  +--------------+      +--------------+       |",
            "+---------------------------------------------------------------+",
        ]
    )
