"""Skill interface and prompt-parsing helpers for the simulated LLM.

A *skill* is one capability of the simulated model (entity matching, code
generation, ...).  The provider routes each prompt to the first skill whose
``matches`` accepts it — a deterministic stand-in for what a real LLM does
implicitly.  Prompts are plain text; these helpers extract the labelled
sections the built-in prompt templates emit (``Record A: {...}``,
``Input: ...``), while tolerating the looser phrasing of hand-written
prompts.
"""

from __future__ import annotations

import json
import re
from abc import ABC, abstractmethod
from typing import Any

from repro.llm.knowledge import KnowledgeBase

__all__ = ["Skill", "extract_json_field", "extract_text_field", "count_examples"]

_JSON = json.JSONDecoder()


class Skill(ABC):
    """One capability of the simulated LLM."""

    #: short identifier recorded in the call ledger
    name: str = "skill"

    @abstractmethod
    def matches(self, prompt: str) -> bool:
        """Whether this skill should answer ``prompt``."""

    @abstractmethod
    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        """The model's textual answer to ``prompt``."""


def _last_labelled(prompt: str, label: str, tail: str) -> "re.Match[str] | None":
    """Match of the right-most ``<label><tail>`` in ``prompt``, label case-blind.

    The greedy any-character prefix makes the engine try start positions
    from the end of the prompt backwards, so it stops at the last occurrence
    without visiting the worked examples before it.
    """
    return re.match("(?s:.*)" + re.escape(label) + tail, prompt, re.IGNORECASE)


def extract_json_field(prompt: str, label: str) -> dict[str, Any] | None:
    """Parse ``<label>: {json object}`` out of ``prompt``.

    The object may span lines; the balanced ``{...}`` after the *last*
    occurrence of the label is parsed — few-shot prompts repeat the label
    inside worked examples, and the actual payload always comes last.
    Returns ``None`` when the label or valid JSON is absent.
    """
    match = _last_labelled(prompt, label, r"\s*:\s*\{")
    if match is None:
        return None
    try:
        # A valid object ends where its braces balance, so decoding from the
        # opening brace reads exactly the ``{...}`` a brace count would cut.
        return _JSON.raw_decode(prompt, match.end() - 1)[0]
    except json.JSONDecodeError:
        return None


def extract_text_field(prompt: str, label: str) -> str | None:
    """Parse ``<label>: value`` (to end of line) out of ``prompt``.

    Takes the *last* occurrence: few-shot prompts repeat field labels inside
    examples, and the payload always follows them.  Last means the right-most
    label that has a value, also when it sits inside an earlier occurrence's
    value (``Input: see Input: x`` is ``x``).
    """
    match = _last_labelled(prompt, label, r"\s*:\s*(.+?)\s*(?m:$)")
    return match.group(1).strip() if match else None


def count_examples(prompt: str) -> int:
    """Number of worked examples embedded in the prompt (few-shot signal)."""
    return len(re.findall(r"^Example(?:\s+\d+)?\s*:", prompt, re.IGNORECASE | re.MULTILINE))
