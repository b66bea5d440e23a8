"""The Lingua Manga DSL: logical operators, pipelines, builder, parser."""

from repro.core.dsl.builder import PipelineBuilder
from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.dsl.parser import DslParseError, parse_pipeline
from repro.core.dsl.pipeline import Pipeline, PipelineError

__all__ = [
    "PipelineBuilder",
    "LogicalOperator",
    "OperatorKind",
    "DslParseError",
    "parse_pipeline",
    "Pipeline",
    "PipelineError",
]
