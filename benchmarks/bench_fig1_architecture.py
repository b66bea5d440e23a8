"""Figure 1 — system architecture.

Figure 1 of the paper illustrates the system: DSL pipelines compiled into
physical modules, with the optimizer and LLM service in the loop.  This
benchmark exercises that whole path (parse DSL -> compile -> physical plan)
for every built-in template and renders the architecture diagram.
"""

from __future__ import annotations

from repro.core.compiler.explain import explain_plan, render_architecture
from repro.core.dsl.parser import parse_pipeline
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import available_templates

from _harness import emit, emit_json

DSL = '''
pipeline "fig1_demo":
  raw = load(source="values")
  c   = clean_text(input=raw, impl="custom")
  d   = dedupe(input=c, impl="custom")
  save(input=d, key="out")
'''


def test_fig1_architecture(benchmark):
    """Render the architecture and time DSL-to-plan compilation."""
    system = LinguaManga()
    sections = [render_architecture(), ""]
    arms = []
    for template in available_templates():
        pipeline = template.instantiate(**template.sample_args)
        plan = system.compile(pipeline)
        sections.append(explain_plan(plan))
        sections.append("")
        arms.append({"name": template.name, "operators": len(pipeline.operators)})
    emit("fig1_architecture", "\n".join(sections))
    emit_json("fig1_architecture", arms)

    def parse_and_compile():
        pipeline = parse_pipeline(DSL)
        return LinguaManga().compile(pipeline)

    plan = benchmark(parse_and_compile)
    assert len(plan.bound) == 4
