"""Word and sentence tokenisers.

These are the first stage of the name-extraction pipeline (paper section 4.2,
Figure 3) and are also used by the similarity metrics and the ML feature
extractors.  The tokenisers are intentionally simple, rule based and fully
deterministic; no external models are involved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Token",
    "word_tokenize",
    "sentence_split",
    "tokens_with_spans",
    "char_ngrams",
]

# A word is a run of letters (with internal apostrophes/hyphens), a run of
# digits (with internal separators), or a single punctuation mark.
_TOKEN_RE = re.compile(
    r"[^\W\d_]+(?:['’-][^\W\d_]+)*"  # words incl. O'Brien, Jean-Luc
    r"|\d+(?:[.,:]\d+)*"  # numbers incl. 8.5, 1,000
    r"|\S",  # any other single non-space char
    re.UNICODE,
)

_SENTENCE_END_RE = re.compile(r"(?<=[.!?。])\s+")


@dataclass(frozen=True)
class Token:
    """A token with its character span in the source text."""

    text: str
    start: int
    end: int

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def word_tokenize(text: str) -> list[str]:
    """Split ``text`` into word/number/punctuation tokens."""
    return _TOKEN_RE.findall(text)


def tokens_with_spans(text: str) -> list[Token]:
    """Like :func:`word_tokenize` but retains character offsets."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def sentence_split(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation.

    The splitter is deliberately conservative: it only breaks after
    ``. ! ?`` (or the CJK full stop) followed by whitespace, which is adequate
    for the synthetic corpora used in this reproduction.
    """
    parts = [part.strip() for part in _SENTENCE_END_RE.split(text)]
    return [part for part in parts if part]


def char_ngrams(text: str, n: int) -> list[str]:
    """Return character ``n``-grams of ``text``.

    The text is wrapped in ``#`` sentinels, so that prefixes and suffixes
    form distinct grams — useful for language identification and fuzzy
    matching features.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    text = "#" + text + "#"
    if len(text) < n:
        return [text]
    return [text[i : i + n] for i in range(len(text) - n + 1)]
