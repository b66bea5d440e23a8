"""Language identification substrate.

Section 4.2 of the paper adds an "LLM language detection module" to fix
multilingual name extraction.  The simulated LLM's language-detection skill
is backed by this classical identifier: per-language stopword cues plus
character-class evidence.  It supports the five languages of the synthetic
corpus (English, Spanish, German, French and romanised Chinese).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.text.tokenize import word_tokenize

__all__ = ["LanguageGuess", "detect_language", "SUPPORTED_LANGUAGES"]

SUPPORTED_LANGUAGES = ("en", "es", "de", "fr", "zh")

_STOPWORDS: dict[str, set[str]] = {
    "en": {
        "the", "and", "of", "to", "in", "a", "is", "was", "that", "with",
        "for", "on", "said", "at", "by", "from", "yesterday", "today",
        "announced", "met", "will", "new", "report", "according",
    },
    "es": {
        "el", "la", "los", "las", "de", "del", "y", "en", "que", "un", "una",
        "con", "por", "para", "se", "su", "ayer", "hoy", "según", "dijo",
        "anunció", "reunión", "durante", "nueva", "informe",
    },
    "de": {
        "der", "die", "das", "und", "in", "den", "von", "zu", "mit", "ein",
        "eine", "im", "am", "für", "auf", "nach", "gestern", "heute", "laut",
        "sagte", "traf", "neue", "bericht", "wurde",
    },
    "fr": {
        "le", "la", "les", "de", "des", "et", "en", "un", "une", "du", "que",
        "avec", "pour", "dans", "au", "aux", "hier", "selon", "a", "déclaré",
        "rencontré", "nouvelle", "rapport", "été",
    },
    "zh": {
        "de", "le", "zai", "shi", "he", "yu", "zuotian", "jintian", "biaoshi",
        "xuanbu", "huijian", "genju", "baogao", "jinxing", "fabiao",
        "canjia", "juxing", "tan",
    },
}

_ACCENT_CUES: dict[str, set[str]] = {
    "es": set("ñáéíóúü¿¡"),
    "de": set("äöüß"),
    "fr": set("àâçèéêëîïôùûœ"),
}

#: One character class per language with cues: one match is one cue.
_CUE_PATTERNS = {
    lang: re.compile("[" + re.escape("".join(sorted(cues))) + "]")
    for lang, cues in _ACCENT_CUES.items()
}


@dataclass(frozen=True)
class LanguageGuess:
    """A detected language with a confidence in ``[0, 1]``."""

    language: str
    confidence: float
    scores: dict[str, float]


def detect_language(text: str) -> LanguageGuess:
    """Identify the dominant language of ``text``.

    Scores each supported language by stopword hits (weight 1.0 each) plus
    accented-character cues (weight 0.5 each), then normalises.  Ties and
    empty evidence default to English, matching the monolingual assumption
    the paper's first-draft pipeline makes.
    """
    tokens = [t.lower() for t in word_tokenize(text)]
    token_set = set(tokens)
    lowered = text.lower()
    scores: dict[str, float] = {}
    for lang in SUPPORTED_LANGUAGES:
        score = float(sum(map(_STOPWORDS[lang].__contains__, tokens)))
        cues = _CUE_PATTERNS.get(lang)
        if cues is not None:
            # Exact: a count of halves adds up to what 0.5 per cue does.
            score += 0.5 * len(cues.findall(lowered))
        scores[lang] = score
    # zh (pinyin) shares "de"/"he" with Romance stopword lists; require a
    # distinctive pinyin cue before awarding the shared tokens.
    distinctive_zh = {"zuotian", "jintian", "biaoshi", "xuanbu", "huijian",
                      "genju", "baogao", "jinxing", "fabiao", "canjia",
                      "juxing"}
    if not (token_set & distinctive_zh):
        scores["zh"] = 0.0
    total = sum(scores.values())
    if total == 0:
        return LanguageGuess("en", 0.0, scores)
    best = max(SUPPORTED_LANGUAGES, key=lambda lang: scores[lang])
    return LanguageGuess(best, scores[best] / total, scores)
