"""Lingua Manga core: DSL, compiler, modules, optimizer, templates, runtime."""

from repro.core.compiler import (
    CompilerContext,
    LinguaMangaCompiler,
    PhysicalPlan,
    RewriteReport,
    RunReport,
    compile_pipeline,
    explain_pipeline,
    explain_plan,
    render_architecture,
    rewrite_pipeline,
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
    DecoratedModule,
    LLMGCModule,
    LLMModule,
    Module,
    RouterModule,
    SequentialModule,
)
from repro.core.optimizer import (
    CostComparison,
    CostTracker,
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
    "compile_pipeline",
    "RewriteReport",
    "rewrite_pipeline",
    "explain_pipeline",
    "explain_plan",
    "render_architecture",
    "LogicalOperator",
    "OperatorKind",
    "Pipeline",
    "PipelineBuilder",
    "parse_pipeline",
    "CustomModule",
    "DecoratedModule",
    "LLMGCModule",
    "LLMModule",
    "Module",
    "RouterModule",
    "SequentialModule",
    "CostComparison",
    "CostTracker",
    "ModuleValidator",
    "TabularConnector",
    "TestCase",
    "LinguaManga",
    "available_templates",
    "get_template",
    "search_templates",
]
