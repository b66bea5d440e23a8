"""General-purpose skills: NL-to-SQL, summarisation, schema matching, and
the conversational fallback.
"""

from __future__ import annotations

import json
import re

from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills.base import Skill, extract_text_field
from repro.text.similarity import jaro_winkler_similarity
from repro.text.tokenize import sentence_split

__all__ = [
    "NL2SQLSkill",
    "SummarizationSkill",
    "SchemaMatchingSkill",
    "ChatFallbackSkill",
]


class NL2SQLSkill(Skill):
    """Translate a constrained natural-language question into SQL.

    Supports the question shapes the connector demo needs: counts, averages,
    min/max, and filtered listings.  The table schema must be in the prompt
    (``Schema: TABLE name (col TYPE, ...)``), which is exactly what the
    connector uploads instead of the data itself.
    """

    name = "nl2sql"

    def matches(self, prompt: str) -> bool:
        lowered = prompt.lower()
        return "sql" in lowered and "schema" in lowered

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        schema_match = re.search(r"TABLE\s+(\w+)\s*\(([^)]*)\)", prompt)
        if schema_match is None:
            return "I need the table schema to write SQL."
        table = schema_match.group(1)
        columns = [
            part.strip().split()[0]
            for part in schema_match.group(2).split(",")
            if part.strip()
        ]
        question = (
            extract_text_field(prompt, "Question") or extract_text_field(prompt, "Input") or ""
        ).lower()

        def find_column(default: str | None = None) -> str | None:
            for column in columns:
                if column.lower() in question:
                    return column
            return default

        condition = self._condition(question, columns)
        where = f" WHERE {condition}" if condition else ""
        if re.search(r"how many|number of|count", question):
            return f"SELECT COUNT(*) AS n FROM {table}{where}"
        if "average" in question or "mean" in question:
            column = find_column()
            if column:
                return f"SELECT AVG({column}) AS avg_{column} FROM {table}{where}"
        for agg, words in (("MAX", ("highest", "most expensive", "maximum", "largest")),
                           ("MIN", ("lowest", "cheapest", "minimum", "smallest"))):
            if any(word in question for word in words):
                column = find_column()
                if column:
                    return (
                        f"SELECT * FROM {table} ORDER BY {column} "
                        f"{'DESC' if agg == 'MAX' else 'ASC'} LIMIT 1"
                    )
        column = find_column()
        projection = column if column else "*"
        return f"SELECT {projection} FROM {table}{where} LIMIT 20"

    @staticmethod
    def _condition(question: str, columns: list[str]) -> str | None:
        over = re.search(r"(\w+)\s+(?:over|above|greater than|more than)\s+(\d+(?:\.\d+)?)", question)
        if over and over.group(1) in [c.lower() for c in columns]:
            return f"{over.group(1)} > {over.group(2)}"
        under = re.search(r"(\w+)\s+(?:under|below|less than)\s+(\d+(?:\.\d+)?)", question)
        if under and under.group(1) in [c.lower() for c in columns]:
            return f"{under.group(1)} < {under.group(2)}"
        equals = re.search(r"(\w+)\s+(?:is|equals|=)\s+'?([\w ]+?)'?(?:\?|$|,)", question)
        if equals and equals.group(1) in [c.lower() for c in columns]:
            value = equals.group(2).strip()
            if re.fullmatch(r"\d+(\.\d+)?", value):
                return f"{equals.group(1)} = {value}"
            return f"LOWER({equals.group(1)}) = '{value.lower()}'"
        return None


class SummarizationSkill(Skill):
    """Extractive summary: lead sentences up to a length budget."""

    name = "summarize"

    def matches(self, prompt: str) -> bool:
        return bool(re.search(r"summari[sz]e|short summary", prompt, re.IGNORECASE))

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        text = extract_text_field(prompt, "Text") or extract_text_field(prompt, "Input")
        if not text:
            # Fall back to everything after the instruction line.
            lines = prompt.splitlines()
            text = " ".join(lines[1:]) if len(lines) > 1 else prompt
        sentences = sentence_split(text)
        summary: list[str] = []
        length = 0
        for sentence in sentences:
            summary.append(sentence)
            length += len(sentence)
            if length > 180 or len(summary) == 2:
                break
        return " ".join(summary) if summary else text[:180]


class SchemaMatchingSkill(Skill):
    """Match two column lists by name similarity; answers JSON pairs."""

    name = "schema_matching"

    def matches(self, prompt: str) -> bool:
        lowered = prompt.lower()
        return (
            ("schema" in lowered and "match" in lowered)
            and extract_text_field(prompt, "Left columns") is not None
        )

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        left = [
            c.strip()
            for c in (extract_text_field(prompt, "Left columns") or "").split(",")
            if c.strip()
        ]
        right = [
            c.strip()
            for c in (extract_text_field(prompt, "Right columns") or "").split(",")
            if c.strip()
        ]
        pairs = []
        for a in left:
            best, best_score = None, 0.0
            for b in right:
                score = jaro_winkler_similarity(a.lower(), b.lower())
                if score > best_score:
                    best, best_score = b, score
            if best is not None and best_score >= 0.72:
                pairs.append([a, best])
        return json.dumps(pairs)


class ChatFallbackSkill(Skill):
    """Last-resort skill so the provider always answers *something*.

    A real LLM never refuses to emit text; the fallback mirrors that while
    making it obvious in transcripts that no specialised skill matched.
    """

    name = "chat"

    def matches(self, prompt: str) -> bool:
        return True

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        head = prompt.strip().splitlines()[0] if prompt.strip() else ""
        return (
            "I am a general-purpose assistant. Regarding your request "
            f"({head[:80]!r}): could you phrase it as one of my supported "
            "task formats?"
        )
