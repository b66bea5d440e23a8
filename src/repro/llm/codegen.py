"""LLM code generation (LLMGC) engine.

Real code-generating LLMs produce a first draft, and improve it when shown
failing test cases and a critique — the loop Lingua Manga's validator drives
(paper section 3.2).  This engine reproduces that behaviour deterministically:
for each code-generation *task* it holds an ordered list of source-code
candidates of increasing quality.  A fresh generation request returns
revision 0; each repair request (which embeds the previous revision number)
returns the next revision.  Early revisions contain the classic bugs an LLM
would make (naive tokenisation, missing fields, unhandled particles), so the
validator genuinely has something to fix.

Generated functions follow one calling convention::

    def run(value, tools):
        ...

``tools`` is a dict of capabilities the *user* granted the module (paper:
"providing external tool APIs ... to optimize the code generation process").
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "CodeCandidate",
    "route_task",
    "candidate_for",
    "suggestion_for",
    "KNOWN_TASKS",
]


@dataclass(frozen=True)
class CodeCandidate:
    """One generated implementation of a task."""

    task: str
    revision: int
    source: str
    notes: str


_TOKENIZE_V0 = '''
def run(value, tools):
    """Split a text into tokens."""
    return value.split()
'''

_TOKENIZE_V1 = '''
def run(value, tools):
    """Split a text into word, number and punctuation tokens."""
    import re
    pattern = re.compile(
        r"[^\\W\\d_]+(?:['\\u2019-][^\\W\\d_]+)*"
        r"|\\d+(?:[.,:]\\d+)*"
        r"|\\S"
    )
    return pattern.findall(value)
'''

_NOUN_PHRASES_V0 = '''
def run(value, tools):
    """Extract candidate noun phrases: runs of capitalised words."""
    phrases, current = [], []
    for word in value.split():
        token = word.strip(".,!?;:()\\"'")
        if token[:1].isupper():
            current.append(token)
        else:
            if current:
                phrases.append(" ".join(current))
            current = []
    if current:
        phrases.append(" ".join(current))
    return phrases
'''

_NOUN_PHRASES_V1 = '''
def run(value, tools):
    """Extract noun phrases, skipping sentence-initial function words."""
    function_words = {
        "the", "a", "an", "in", "on", "at", "of", "and", "he", "she", "it",
        "they", "yesterday", "today", "after", "ayer", "hoy", "el", "la",
        "gestern", "heute", "hier", "le", "les", "der", "die", "das",
    }
    phrases, current = [], []
    at_sentence_start = True
    for word in value.split():
        token = word.strip(".,!?;:()\\"'")
        if token[:1].isupper():
            if at_sentence_start and token.lower() in function_words and not current:
                pass
            else:
                current.append(token)
        else:
            if current:
                phrases.append(" ".join(current))
            current = []
        at_sentence_start = word.endswith((".", "!", "?"))
    if current:
        phrases.append(" ".join(current))
    return phrases
'''

_NOUN_PHRASES_V2 = '''
def run(value, tools):
    """Extract noun phrases with particle and honorific handling.

    Uses the noun-phrase chunking tool granted to this module, which bridges
    lowercase name particles ("de", "van") and strips honorifics.
    """
    chunker = tools["noun_phrases"]
    return [span.text for span in chunker(value)]
'''

_IMPUTE_V0 = '''
def run(value, tools):
    """Impute a product's manufacturer from its name."""
    name = (value.get("name") or "")
    for brand in tools["brand_names"]:
        if brand.lower() in name.lower():
            return brand
    return None
'''

_IMPUTE_V1 = '''
def run(value, tools):
    """Impute a product's manufacturer from its name and description."""
    text = ((value.get("name") or "") + " " + (value.get("description") or "")).lower()
    for brand in tools["brand_names"]:
        if brand.lower() in text:
            return brand
    return None
'''

_IMPUTE_V2 = '''
def run(value, tools):
    """Impute a manufacturer: cheap brand-mention rules, LLM for hard cases.

    Straightforward records mention their brand verbatim and are resolved
    locally for free; only records with no brand mention are escalated to
    the LLM tool, which knows product lines (e.g. PlayStation -> Sony).
    """
    import re
    text = ((value.get("name") or "") + " " + (value.get("description") or "")).lower()
    best = None
    for brand in tools["brand_names"]:
        if re.search(r"\\b" + re.escape(brand.lower()) + r"\\b", text):
            if best is None or len(brand) > len(best):
                best = brand
    if best is not None:
        return best
    llm_impute = tools.get("llm_impute")
    if llm_impute is not None:
        return llm_impute(value)
    return None
'''

_LIBRARY: dict[str, list[CodeCandidate]] = {
    "tokenize": [
        CodeCandidate("tokenize", 0, _TOKENIZE_V0, "whitespace split; punctuation glued to words"),
        CodeCandidate("tokenize", 1, _TOKENIZE_V1, "regex tokeniser handling punctuation and numbers"),
    ],
    "noun_phrases": [
        CodeCandidate("noun_phrases", 0, _NOUN_PHRASES_V0, "naive capitalised runs"),
        CodeCandidate("noun_phrases", 1, _NOUN_PHRASES_V1, "skips sentence-initial function words"),
        CodeCandidate("noun_phrases", 2, _NOUN_PHRASES_V2, "particle/honorific aware via granted tool"),
    ],
    "impute_manufacturer": [
        CodeCandidate("impute_manufacturer", 0, _IMPUTE_V0, "brand mention in name only"),
        CodeCandidate("impute_manufacturer", 1, _IMPUTE_V1, "brand mention in name or description"),
        CodeCandidate("impute_manufacturer", 2, _IMPUTE_V2, "rules first, LLM escalation for hard cases"),
    ],
}

KNOWN_TASKS = tuple(sorted(_LIBRARY))

_SUGGESTIONS: dict[tuple[str, int], str] = {
    ("tokenize", 0): (
        "The code splits on whitespace only, so punctuation stays attached to "
        "words ('Boston.' instead of 'Boston', '.'). Use a regular expression "
        "that separates words, numbers and punctuation marks."
    ),
    ("noun_phrases", 0): (
        "The code treats every capitalised word as part of a phrase, so "
        "sentence-initial function words like 'The' or 'Yesterday' are "
        "returned as phrases. Skip capitalised function words at sentence "
        "starts."
    ),
    ("noun_phrases", 1): (
        "Names containing lowercase particles such as 'de', 'van' or 'von' "
        "are split into fragments ('Maria' / 'Cruz'). Bridge particles "
        "between capitalised words, or use the provided noun_phrases tool "
        "which already handles particles and honorifics."
    ),
    ("impute_manufacturer", 0): (
        "The code only inspects the 'name' field, but many records mention "
        "the brand in 'description'. Search both fields."
    ),
    ("impute_manufacturer", 1): (
        "Records that never mention the brand verbatim (e.g. 'PlayStation 2 "
        "Memory Card' made by Sony) cannot be resolved by string matching. "
        "Escalate those records to the provided llm_impute tool, keeping the "
        "cheap rule for records that do mention their brand."
    ),
}

# Keyword routing: first match wins, so order matters.
_ROUTES: tuple[tuple[str, str], ...] = (
    (r"manufactur|imput|brand|missing value", "impute_manufacturer"),
    (r"noun.?phrase|candidate phrase|capitali[sz]ed span", "noun_phrases"),
    (r"token", "tokenize"),
)


def route_task(description: str) -> str | None:
    """Map a natural-language task description to a known task key."""
    lowered = description.lower()
    for pattern, task in _ROUTES:
        if re.search(pattern, lowered):
            return task
    return None


def candidate_for(task: str, revision: int) -> CodeCandidate:
    """The candidate at ``revision`` (clamped to the best available)."""
    if task not in _LIBRARY:
        raise KeyError(f"unknown code-generation task: {task!r}; know {KNOWN_TASKS}")
    candidates = _LIBRARY[task]
    return candidates[min(max(revision, 0), len(candidates) - 1)]


def suggestion_for(task: str, revision: int) -> str:
    """The critique an LLM would give for the candidate at ``revision``."""
    return _SUGGESTIONS.get(
        (task, revision),
        "Re-examine the failing cases and handle the uncovered input shapes.",
    )
