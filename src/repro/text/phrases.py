"""Noun-phrase extraction.

The second operator of the name-extraction pipeline (paper Figure 3).  The
chunker finds maximal spans of capitalised words — the candidate set that the
tagging operator later labels as person names or not.  This is the *refined*
chunker, the one the validator's repair loop ends at (honorific and particle
handling); the LLM's naive first drafts are the earlier ``noun_phrases``
revisions in :mod:`repro.llm.codegen`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.tokenize import Token, tokens_with_spans

__all__ = ["PhraseSpan", "noun_phrases"]

# Sentence-initial words that are capitalised only because of position.
_FUNCTION_WORDS = {
    "the", "a", "an", "in", "on", "at", "of", "for", "to", "and", "or", "but",
    "with", "by", "from", "as", "is", "was", "are", "were", "he", "she", "it",
    "they", "we", "i", "you", "this", "that", "these", "those", "after",
    "before", "when", "while", "today", "yesterday", "tomorrow", "meanwhile",
    "however", "then", "there", "here", "later", "earlier", "during",
    # Spanish / French / German function words that start sentences.
    "el", "la", "los", "las", "un", "una", "en", "de", "del", "le", "les",
    "des", "au", "aux", "der", "die", "das", "ein", "eine", "im", "am",
    "según", "selon", "nach", "laut", "ayer", "hier", "hoy", "demain",
    "gestern", "heute", "morgen",
}

# Lowercase particles that may appear *inside* a multi-word name.
_NAME_PARTICLES = {"de", "del", "della", "di", "da", "van", "von", "der", "den", "la", "le", "bin", "al"}

_HONORIFICS = {
    "mr", "mr.", "mrs", "mrs.", "ms", "ms.", "dr", "dr.", "prof", "prof.",
    "sir", "dame", "lord", "lady", "sr.", "sra.", "don", "doña", "herr",
    "frau", "monsieur", "madame", "mme", "m.",
}


@dataclass(frozen=True)
class PhraseSpan:
    """A candidate phrase with its source-character span."""

    text: str
    start: int
    end: int
    tokens: tuple[str, ...]


def _is_capitalised(token: str) -> bool:
    return bool(token) and token[0].isalpha() and token[0].isupper()


def _spans_from_groups(groups: list[list[Token]]) -> list[PhraseSpan]:
    spans = []
    for group in groups:
        if not group:
            continue
        spans.append(
            PhraseSpan(
                text=" ".join(t.text for t in group),
                start=group[0].start,
                end=group[-1].end,
                tokens=tuple(t.text for t in group),
            )
        )
    return spans


def noun_phrases(text: str) -> list[PhraseSpan]:
    """Refined chunker (post validator repair).

    Improvements over the naive draft (every maximal capitalised run):

    - drops sentence-initial capitalised function words ("The", "Ayer"),
    - bridges lowercase name particles so "Maria de la Cruz" stays one span,
    - attaches honorifics ("Dr. Chen") to the following phrase.
    """
    tokens = tokens_with_spans(text)
    groups: list[list[Token]] = []
    current: list[Token] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        word = token.text
        if _is_capitalised(word):
            sentence_initial = token.start == 0 or (
                i > 0 and tokens[i - 1].text in ".!?。"
            )
            if sentence_initial and word.lower() in _FUNCTION_WORDS and not current:
                i += 1
                continue
            current.append(token)
        elif current and word.lower() in _NAME_PARTICLES and i + 1 < len(tokens):
            # Bridge the particle: "Maria" + "de" + "la"? look ahead through
            # consecutive particles to a capitalised continuation.
            j = i
            bridge: list[Token] = []
            while j < len(tokens) and tokens[j].text.lower() in _NAME_PARTICLES:
                bridge.append(tokens[j])
                j += 1
            if j < len(tokens) and _is_capitalised(tokens[j].text):
                current.extend(bridge)
                i = j
                continue
            groups.append(current)
            current = []
        else:
            if current:
                groups.append(current)
            current = []
        i += 1
    if current:
        groups.append(current)

    spans = _spans_from_groups(groups)

    # Drop bare honorifics and strip leading honorific tokens from spans.
    cleaned: list[PhraseSpan] = []
    for span in spans:
        tokens_list = list(span.tokens)
        while tokens_list and tokens_list[0].lower() in _HONORIFICS:
            tokens_list = tokens_list[1:]
        if not tokens_list:
            continue
        if tokens_list == list(span.tokens):
            cleaned.append(span)
        else:
            offset = span.text.find(tokens_list[0])
            cleaned.append(
                PhraseSpan(
                    text=" ".join(tokens_list),
                    start=span.start + max(offset, 0),
                    end=span.end,
                    tokens=tuple(tokens_list),
                )
            )
    return cleaned
