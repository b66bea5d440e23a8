"""Lingua Manga core: DSL, compiler, modules, optimizer, templates, runtime."""

from repro.core.compiler import (
    CompilerContext,
    LinguaMangaCompiler,
    PhysicalPlan,
    RunReport,
    explain_pipeline,
    explain_plan,
    render_architecture,
)
from repro.core.dsl import (
    LogicalOperator,
    OperatorKind,
    Pipeline,
    PipelineBuilder,
    parse_pipeline,
)
from repro.core.modules import (
    CustomModule,
    LLMGCModule,
    LLMModule,
    Module,
)
from repro.core.optimizer import (
    CostComparison,
    ModuleValidator,
    TabularConnector,
    TestCase,
)
from repro.core.runtime import LinguaManga
from repro.core.templates import available_templates, get_template, search_templates

__all__ = [
    "CompilerContext",
    "LinguaMangaCompiler",
    "PhysicalPlan",
    "RunReport",
    "explain_pipeline",
    "explain_plan",
    "render_architecture",
    "LogicalOperator",
    "OperatorKind",
    "Pipeline",
    "PipelineBuilder",
    "parse_pipeline",
    "CustomModule",
    "LLMGCModule",
    "LLMModule",
    "Module",
    "CostComparison",
    "ModuleValidator",
    "TabularConnector",
    "TestCase",
    "LinguaManga",
    "available_templates",
    "get_template",
    "search_templates",
]
