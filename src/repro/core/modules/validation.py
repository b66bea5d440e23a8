"""Output validators for LLM responses.

Paper section 3.1: "LLM outputs typically need proper validation, as textual
responses generated by the LLMs could be diverse and unstable. For instance,
numerical validation that ensures the LLM's output is within a reasonable
value range can identify and correct potential errors."  Validators check a
*parsed* module output; the LLM module re-prompts when validation fails.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable

__all__ = [
    "OutputValidator",
    "ChoiceValidator",
    "NonEmptyValidator",
]


class OutputValidator(ABC):
    """A check applied to a parsed LLM output."""

    @abstractmethod
    def check(self, value: Any) -> tuple[bool, str]:
        """Return ``(ok, message)``; ``message`` explains a failure."""


class ChoiceValidator(OutputValidator):
    """Value must be one of a closed set (case-insensitive for strings)."""

    def __init__(self, choices: Iterable[Any]):
        self.choices = list(choices)
        if not self.choices:
            raise ValueError("choices must be non-empty")
        self._folded = {
            c.lower() if isinstance(c, str) else c for c in self.choices
        }

    def check(self, value: Any) -> tuple[bool, str]:
        folded = value.lower() if isinstance(value, str) else value
        try:
            ok = folded in self._folded
        except TypeError:
            return False, f"unhashable output {value!r}"
        if not ok:
            return False, f"{value!r} not in {self.choices}"
        return True, ""


class NonEmptyValidator(OutputValidator):
    """Value must be non-empty (string, list, dict...)."""

    def check(self, value: Any) -> tuple[bool, str]:
        if value is None:
            return False, "output is None"
        try:
            if len(value) == 0:
                return False, "output is empty"
        except TypeError:
            pass  # scalars are fine
        return True, ""
