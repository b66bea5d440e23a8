"""Output validators for LLM responses.

Paper section 3.1: "LLM outputs typically need proper validation, as textual
responses generated by the LLMs could be diverse and unstable. For instance,
numerical validation that ensures the LLM's output is within a reasonable
value range can identify and correct potential errors."  Validators check a
*parsed* module output; the LLM module re-prompts when validation fails.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = [
    "OutputValidator",
    "NonEmptyValidator",
]


class OutputValidator(ABC):
    """A check applied to a parsed LLM output."""

    @abstractmethod
    def check(self, value: Any) -> tuple[bool, str]:
        """Return ``(ok, message)``; ``message`` explains a failure."""


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
