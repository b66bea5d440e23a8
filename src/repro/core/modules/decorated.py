"""Decorated modules: composition plus optimizer enhancements.

Paper section 3.1: "a decorated module can comprise multiple basic modules
and be enhanced by the optimizer".  Two composition forms are provided:

- :class:`SequentialModule` — a fixed chain ``f3(f2(f1(x)))``.
- :class:`DecoratedModule` — an inner module wrapped by named decorations
  (the optimizer attaches validator/simulator/connector behaviour by
  wrapping, so the inner module stays untouched and auditable).
- :class:`RouterModule` — routes each input to one of several modules by a
  predicate (used by the expert imputation pipeline to send easy cases to
  rules and hard cases to the LLM).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.core.modules.base import Module

__all__ = ["SequentialModule", "DecoratedModule", "RouterModule"]


class SequentialModule(Module):
    """Compose modules left to right: output of each feeds the next."""

    module_type = "decorated"

    def __init__(self, name: str, stages: Sequence[Module]):
        super().__init__(name)
        if not stages:
            raise ValueError("SequentialModule needs at least one stage")
        self.stages = list(stages)

    def _run(self, value: Any) -> Any:
        for stage in self.stages:
            value = stage.run(value)
        return value

    def describe(self) -> str:
        """Chain rendering of the stage names."""
        chain = " -> ".join(stage.name for stage in self.stages)
        return f"{self.name} <decorated: {chain}>"


class DecoratedModule(Module):
    """An inner module plus an ordered list of decoration labels.

    The actual behaviour changes live in ``wrapper`` (a module that already
    wraps the inner one); the decoration labels document *what* the
    optimizer attached, for plans and the UI.
    """

    module_type = "decorated"

    def __init__(self, name: str, inner: Module, wrapper: Module, decorations: Sequence[str]):
        super().__init__(name)
        self.inner = inner
        self.wrapper = wrapper
        self.decorations = list(decorations)

    def _run(self, value: Any) -> Any:
        return self.wrapper.run(value)

    def _children(self) -> Iterator[tuple[str, Module]]:
        # ``inner`` is reached through ``wrapper``, which already wraps it.
        yield "wrapper", self.wrapper

    def describe(self) -> str:
        """Inner module plus attached decorations."""
        tags = ", ".join(self.decorations) if self.decorations else "none"
        return f"{self.name} <decorated: {self.inner.name} + [{tags}]>"


class RouterModule(Module):
    """Route each input to ``primary`` unless ``escalate`` says otherwise.

    ``escalate(value, primary_result)`` inspects the primary module's result
    and decides whether the fallback should be consulted instead — the
    cheap-path/expensive-path split behind the paper's 1/6-LLM-calls
    imputation result.
    """

    module_type = "decorated"

    def __init__(
        self,
        name: str,
        primary: Module,
        fallback: Module,
        escalate: Callable[[Any, Any], bool],
    ):
        super().__init__(name)
        self.primary = primary
        self.fallback = fallback
        self.escalate = escalate
        self.escalations = 0

    def _run(self, value: Any) -> Any:
        result = self.primary.run(value)
        if self.escalate(value, result):
            with self._lock:
                self.escalations += 1
            return self.fallback.run(value)
        return result

    def describe(self) -> str:
        """Primary/fallback rendering with the escalation count."""
        return (
            f"{self.name} <decorated: {self.primary.name} || {self.fallback.name}, "
            f"escalations={self.escalations}>"
        )
