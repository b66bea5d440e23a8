"""The Lingua Manga compiler: registry, context, plans, EXPLAIN."""

from repro.core.compiler.compiler import (
    CompileError,
    LinguaMangaCompiler,
)
from repro.core.compiler.context import CompilerContext
from repro.core.compiler.explain import (
    explain_pipeline,
    explain_plan,
    render_architecture,
)
from repro.core.compiler.plan import BoundOperator, PhysicalPlan, RunReport
from repro.core.compiler.registry import (
    build_module,
    default_strategy,
    make_name_tagger,
    make_pair_matcher,
    register_strategy,
    render_pair,
)

# Registers the curation operator strategies (dedup_candidates,
# quality_filter, decontaminate) as an import side effect.
from repro.core.compiler import curation as _curation  # noqa: E402,F401

__all__ = [
    "CompileError",
    "LinguaMangaCompiler",
    "CompilerContext",
    "explain_pipeline",
    "explain_plan",
    "render_architecture",
    "BoundOperator",
    "PhysicalPlan",
    "RunReport",
    "build_module",
    "default_strategy",
    "make_name_tagger",
    "make_pair_matcher",
    "register_strategy",
    "render_pair",
]
