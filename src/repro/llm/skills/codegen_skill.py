"""Code-generation and code-critique skills.

Together these two skills reproduce the validator's repair cycle (paper
section 3.2): the first LLM call *suggests* why the code fails, the second
*regenerates* the code.  Revision tracking rides inside the prompt — repair
prompts include ``Revision: N`` and the engine answers with revision ``N+1``
— so the "model" stays stateless like a real API.
"""

from __future__ import annotations

import re

from repro.llm import codegen
from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills.base import Skill, extract_text_field

__all__ = ["CodeGenerationSkill", "CodeSuggestionSkill"]

_GENERATE_TRIGGER = re.compile(
    r"write (a |the )?(python )?(code|function)|generate (the )?code|implement a function",
    re.IGNORECASE,
)
_SUGGEST_TRIGGER = re.compile(
    r"why does (this|the) code fail|critique this code|"
    r"read the code and the fail",
    re.IGNORECASE,
)


def _mentions(prompt: str, *words: str) -> bool:
    """Whether the lower-cased ``prompt`` holds any of ``words``.

    The look before a trigger runs: the triggers are case-blind
    alternations with no literal prefix, tried at every offset of the
    prompt, and nearly every prompt is not about code.  Each alternative
    contains one of ``words``, and they are spelt without ``i``, ``k`` and
    ``s`` — the letters ``IGNORECASE`` also matches to ``İ ı K ſ`` — so
    ``str.lower`` sees every spelling the regex would accept.
    """
    lowered = prompt.lower()
    return any(word in lowered for word in words)


def _task_from_prompt(prompt: str) -> str | None:
    description = extract_text_field(prompt, "Task") or prompt
    return codegen.route_task(description)


def _revision_from_prompt(prompt: str) -> int:
    text = extract_text_field(prompt, "Revision")
    if text is None:
        return -1  # fresh generation request -> respond with revision 0
    try:
        return int(text)
    except ValueError:
        return -1


class CodeGenerationSkill(Skill):
    """Emit Python source for a described task inside a code fence."""

    name = "codegen"

    def matches(self, prompt: str) -> bool:
        return _mentions(prompt, "code", "unct") and bool(
            _GENERATE_TRIGGER.search(prompt)
        )

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        task = _task_from_prompt(prompt)
        if task is None:
            return (
                "I do not know how to implement that task. Supported tasks: "
                + ", ".join(codegen.KNOWN_TASKS)
            )
        revision = _revision_from_prompt(prompt) + 1
        candidate = codegen.candidate_for(task, revision)
        return (
            f"Here is an implementation (task={candidate.task}, "
            f"revision={candidate.revision}):\n"
            f"```python\n{candidate.source.strip()}\n```"
        )


class CodeSuggestionSkill(Skill):
    """Explain why a given revision fails its test cases."""

    name = "suggest"

    def matches(self, prompt: str) -> bool:
        return _mentions(prompt, "code") and bool(_SUGGEST_TRIGGER.search(prompt))

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        task = _task_from_prompt(prompt)
        if task is None:
            return "Without recognising the task I can only suggest re-reading the failures."
        revision = max(_revision_from_prompt(prompt), 0)
        return codegen.suggestion_for(task, revision)
