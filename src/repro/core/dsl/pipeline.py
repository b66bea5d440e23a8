"""The logical pipeline: a validated DAG of logical operators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dsl.operators import LogicalOperator

__all__ = ["PipelineError", "Pipeline"]


class PipelineError(ValueError):
    """Raised when a pipeline is structurally invalid."""


@dataclass
class Pipeline:
    """A named DAG of logical operators.

    Operators reference their inputs by operator name.  ``validate`` checks
    referential integrity and acyclicity; ``topological_order`` is the
    execution order the compiler binds against.
    """

    name: str
    operators: list[LogicalOperator] = field(default_factory=list)
    description: str = ""

    def add(self, operator: LogicalOperator) -> "Pipeline":
        """Append an operator (names must be unique); returns self."""
        if any(op.name == operator.name for op in self.operators):
            raise PipelineError(f"duplicate operator name: {operator.name!r}")
        self.operators.append(operator)
        return self

    def validate(self) -> None:
        """Check structure; raises :class:`PipelineError` on problems."""
        if not self.operators:
            raise PipelineError("pipeline has no operators")
        names = {op.name for op in self.operators}
        for op in self.operators:
            for ref in op.inputs:
                if ref not in names:
                    raise PipelineError(
                        f"operator {op.name!r} references unknown input {ref!r}"
                    )
                if ref == op.name:
                    raise PipelineError(f"operator {op.name!r} references itself")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> list[LogicalOperator]:
        """Operators in a valid execution order (raises on cycles)."""
        indegree = {op.name: len(op.inputs) for op in self.operators}
        dependants: dict[str, list[str]] = {op.name: [] for op in self.operators}
        for op in self.operators:
            for ref in op.inputs:
                if ref in dependants:
                    dependants[ref].append(op.name)
        # Stable order: preserve insertion order among ready nodes.
        ready = [op.name for op in self.operators if indegree[op.name] == 0]
        order: list[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for nxt in dependants[current]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.operators):
            stuck = sorted(set(indegree) - set(order))
            raise PipelineError(f"pipeline contains a cycle involving {stuck}")
        by_name = {op.name: op for op in self.operators}
        return [by_name[name] for name in order]

    def sinks(self) -> list[LogicalOperator]:
        """Operators nothing depends on (the pipeline's outputs)."""
        consumed = {ref for op in self.operators for ref in op.inputs}
        return [op for op in self.operators if op.name not in consumed]

    def to_text(self) -> str:
        """Multi-line rendering in execution order (Fig 2/3/4 style)."""
        lines = [f"pipeline {self.name!r}:"]
        for op in self.topological_order():
            arrow = f" <- {', '.join(op.inputs)}" if op.inputs else ""
            lines.append(f"  {op.describe()}{arrow}")
        return "\n".join(lines)
