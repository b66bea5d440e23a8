"""Batched entity-matching skill: many pairs per prompt.

Packing several record pairs into one prompt amortises the instruction
preamble and turns N service calls into N/B — a standard cost optimization
that complements the optimizer's simulator and cache.  The skill answers
with one numbered verdict per pair; verdicts are computed by the same
:func:`~repro.llm.skills.entity_matching.judge_pair` logic as the
single-pair skill and keyed on pair content, so batching never changes an
answer.
"""

from __future__ import annotations

import re

from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills.base import Skill, count_examples, extract_json_field
from repro.llm.skills.entity_matching import judge_pair

__all__ = ["BatchEntityMatchingSkill"]

_PAIR_HEADER_RE = re.compile(r"^Pair\s+(\d+)\s*:", re.IGNORECASE | re.MULTILINE)


class BatchEntityMatchingSkill(Skill):
    """Answer ``Pair N:`` sections with ``N: Yes/No`` lines."""

    name = "batch_entity_matching"

    def matches(self, prompt: str) -> bool:
        lowered = prompt.lower()
        return (
            "record a" in lowered
            and ("same entity" in lowered or "equivalent" in lowered)
            and _PAIR_HEADER_RE.search(prompt) is not None
        )

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        sections = _PAIR_HEADER_RE.split(prompt)
        # split() yields [preamble, index1, body1, index2, body2, ...]
        preamble = sections[0]
        has_examples = count_examples(preamble) > 0
        described = "task" in preamble.lower() and len(preamble) > 220
        lines: list[str] = []
        for i in range(1, len(sections) - 1, 2):
            index = sections[i]
            body = sections[i + 1]
            left = extract_json_field(body, "Record A")
            right = extract_json_field(body, "Record B")
            if left is None or right is None:
                lines.append(f"{index}: Unknown (missing records)")
                continue
            verdict, _ = judge_pair(left, right, kb, has_examples, described)
            lines.append(f"{index}: {'Yes' if verdict else 'No'}")
        if not lines:
            return "I found no 'Pair N:' sections with two records each."
        return "\n".join(lines)
