"""The Lingua Manga compiler: logical pipeline -> physical plan.

"Like a relational database, it auto-compiles each logical operator into a
physical, executable module" (paper section 3).  Beyond strategy selection
the compiler also honours the optimizer attachments declared on operators:

- ``validator_cases=[TestCase, ...]`` — run the validator's test-and-repair
  cycle on the bound module at compile time (LLMGC modules get repaired).
- ``simulate=True`` (plus optional ``simulate_config={...}``) — wrap the
  per-item module with the optimizer's simulator
  (:class:`~repro.core.optimizer.distill.DistillationRouter`), which
  answers high-confidence records with a shadow-trained, audited local
  model and ledgers them with ``distilled`` provenance.
"""

from __future__ import annotations

from typing import Any

from repro.core.compiler.context import CompilerContext
from repro.core.compiler.plan import BoundOperator, PhysicalPlan
from repro.core.compiler.registry import CompileError, build_module
from repro.core.dsl.operators import LogicalOperator
from repro.core.dsl.pipeline import Pipeline
from repro.core.modules.base import Module
from repro.core.modules.cascade import CascadeModule
from repro.core.modules.llmgc import LLMGCModule
from repro.core.modules.mapping import EnrichModule, MapModule
from repro.core.optimizer.distill import DistillationRouter
from repro.core.optimizer.validator import ModuleValidator, TestCase, ValidationReport

__all__ = ["CompileError", "LinguaMangaCompiler"]


def _innermost(module: Module) -> Module:
    """Follow map/enrich wrappers down to the item-level module."""
    current = module
    while True:
        if isinstance(current, MapModule):
            current = current.inner
        elif isinstance(current, EnrichModule) and isinstance(current.stage, Module):
            current = current.stage
        else:
            return current


def _default_featurize(value: Any) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={value[k]}" for k in sorted(value))
    return str(value)


class LinguaMangaCompiler:
    """Compile pipelines against a :class:`CompilerContext`."""

    def __init__(self, context: CompilerContext | None = None):
        self.context = context or CompilerContext()
        self.validation_reports: list[ValidationReport] = []

    def compile(self, pipeline: Pipeline) -> PhysicalPlan:
        """Bind every operator, applying optimizer attachments."""
        pipeline.validate()
        bound: list[BoundOperator] = []
        obs = getattr(self.context.service, "obs", None)
        for operator in pipeline.topological_order():
            module = build_module(operator, self.context)
            module = self._apply_validator(operator, module)
            module = self._apply_simulator(operator, module)
            if obs is not None:
                _attach_obs(module, obs)
            bound.append(BoundOperator(operator=operator, module=module))
        return PhysicalPlan(pipeline=pipeline, bound=bound, context=self.context)

    # -- optimizer attachments -------------------------------------------------

    def _apply_validator(self, operator: LogicalOperator, module: Module) -> Module:
        cases = operator.params.get("validator_cases")
        if not cases:
            return module
        if not all(isinstance(case, TestCase) for case in cases):
            raise CompileError(
                f"operator {operator.name!r}: validator_cases must be TestCase objects"
            )
        target = _innermost(module)
        # The validator repairs LLMGC modules in place; for other module
        # types it simply reports.
        validator = ModuleValidator(self.context.service, list(cases))
        if isinstance(target, LLMGCModule):
            report = validator.validate_and_repair(target)
        else:
            # Modules reachable through a tagger holder can still be validated.
            holder = getattr(target, "tagger_holder", None)
            if holder is not None:
                report = validator.validate_and_repair(holder["tagger"])
            else:
                report = validator.validate_and_repair(target)
        self.validation_reports.append(report)
        return module

    def _apply_simulator(self, operator: LogicalOperator, module: Module) -> Module:
        if not operator.params.get("simulate", False):
            return module
        config = dict(operator.params.get("simulate_config", {}))
        config.setdefault("featurize", _default_featurize)

        def wrap(teacher: Module) -> DistillationRouter:
            return DistillationRouter(
                name=f"{operator.name}_distilled",
                teacher=teacher,
                service=self.context.service,
                purpose=getattr(teacher, "purpose", None),
                **config,
            )

        holder = getattr(_innermost(module), "tagger_holder", None)
        if holder is not None:
            holder["tagger"] = wrap(holder["tagger"])
            return module
        item = module.inner if isinstance(module, MapModule) else module
        if isinstance(item, CascadeModule):
            # A classifier cascade simulates its *teacher* rung: the student
            # sits between the free rules and the LLM, so it answers
            # high-confidence escalations and never shadows a rule.
            item.teacher = wrap(item.teacher)
        elif isinstance(module, MapModule):
            module.inner = wrap(item)
        elif isinstance(module, EnrichModule) and isinstance(module.stage, Module):
            module.stage = wrap(module.stage)
        else:
            return wrap(module)
        return module


def _attach_obs(module: Module, obs) -> None:
    """Point a module tree at the system's observability hub."""
    module.obs = obs
    for _, child in module._children():
        _attach_obs(child, obs)
