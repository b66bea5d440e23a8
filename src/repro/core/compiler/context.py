"""Compilation context: the shared services physical modules bind to."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.storage.database import Database

__all__ = ["CompilerContext"]


@dataclass
class CompilerContext:
    """Everything a physical module may need at bind time.

    ``tools`` are capabilities granted to LLMGC modules (external tool APIs,
    other modules); ``options`` carry application-level settings the
    strategies read (e.g. default few-shot examples for matching).
    """

    service: LLMService = field(default_factory=lambda: LLMService(SimulatedProvider()))
    database: Database = field(default_factory=Database)
    tools: dict[str, Any] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)
