"""Surface-statistic document quality heuristics (the cascade's cheap rung).

These rules are deliberately *knowledge-free*: they see casing, punctuation,
token shapes and repetition, but no vocabulary.  That gives them genuine
failure modes the corpus generator plants on purpose:

- pseudo-words (``brimflar``, ``gundkelb``) look perfectly word-shaped, so
  junk-stuffed documents sail past surface rules;
- marketing boilerplate is grammatical and well-punctuated;
- the ``OFFICIAL SPEC`` catalogue decoy is ALL-CAPS and digit-heavy, so the
  caps/digit penalties *wrongly* punish high-quality documents that carry it.

The LLM rung of the cascade (``QualityJudgmentSkill``) has the vocabulary
and the world knowledge to fix all three.  The cascade escalates documents
whose rule score falls inside the uncertain band; see
:mod:`repro.core.modules.cascade`.

All statistics are pure functions of the text, so the rule rung is
deterministic, chunk-safe and free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "QualityStats",
    "quality_stats",
    "rule_quality_score",
]

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_CONSONANT_CLUSTER_RE = re.compile(r"[bcdfghjklmnpqrstvwxz]{4,}")
# The whole-text passes, for text that :func:`_counts_in_one_pass` admits.
# There every non-ASCII character of the lowered text is a letter, so a
# word (``_WORD_RE``) is a run of ``a-z`` and non-ASCII characters.
_LOWERED_WORD_RE = re.compile(r"[a-z\x80-\U0010ffff]+")
# One match per whitespace token that holds an ASCII digit: the match starts
# at the token's first digit and runs to its end.
_DIGIT_TOKEN_RE = re.compile(r"[0-9]\S*")
# One match per lowered word holding a 4+ consonant run: the match starts at
# the word's first such run and runs to the word's end.
_CLUSTER_WORD_RE = re.compile(r"[bcdfghjklmnpqrstvwxz]{4}[a-z\x80-\U0010ffff]*")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
# The one letter ``lower()`` maps by context: "ς" at the end of a word.
_CAPITAL_SIGMA = "\u03a3"


def _counts_in_one_pass(text: str) -> bool:
    """Whether the whole-text passes of :func:`quality_stats` are exact.

    They are when every non-ASCII character is a letter whose ``lower()``
    is one letter, independent of its context: then lower-casing keeps
    every character's word/digit/space class, so words of the lowered text
    are the lowered words, and only ASCII digits exist.  ``str.isdigit``
    accepts ``"²"``, ``"İ".lower()`` is two characters and ``"Σ"`` lowers
    by position, so such text keeps the per-token loop.
    """
    if text.isascii():
        return True
    for char in set(_NON_ASCII_RE.findall(text)):
        lowered = char.lower()
        if (
            char == _CAPITAL_SIGMA
            or not char.isalpha()
            or len(lowered) != 1
            or not lowered.isalpha()
        ):
            return False
    return True


@dataclass(frozen=True)
class QualityStats:
    """Surface statistics of one document."""

    n_tokens: int
    n_sentences: int
    tokens_per_sentence: float  # run-on detector: missing periods merge sentences
    allcaps_ratio: float  # tokens (len > 2) that are fully upper-case
    digit_token_ratio: float  # tokens containing a digit
    distinct_sentence_ratio: float  # repeated sentences read as spam
    distinct_word_ratio: float  # distinct word forms / total word forms
    cluster_word_ratio: float  # words with 4+ consonant runs (gibberish tell)


def quality_stats(text: str) -> QualityStats:
    """Compute the surface statistics :func:`rule_quality_score` scores.

    Words, digit tokens and consonant-cluster words are counted in
    whole-text regex passes when :func:`_counts_in_one_pass` proves them
    equal to a per-token count; any other text is counted token by token.
    """
    tokens = text.split()
    sentences = [s.strip() for s in _SENTENCE_SPLIT_RE.split(text.strip()) if s.strip()]
    if _counts_in_one_pass(text):
        lowered = text.lower()
        words = _LOWERED_WORD_RE.findall(lowered)
        digits = len(_DIGIT_TOKEN_RE.findall(text))
        clustered = len(_CLUSTER_WORD_RE.findall(lowered))
    else:
        words = [w.lower() for w in _WORD_RE.findall(text)]
        digits = sum(1 for t in tokens if any(c.isdigit() for c in t))
        clustered = sum(1 for w in words if _CONSONANT_CLUSTER_RE.search(w))
    n_tokens = len(tokens)
    n_sentences = len(sentences)
    caps = sum(1 for t in tokens if len(t) > 2 and t.isupper())
    return QualityStats(
        n_tokens=n_tokens,
        n_sentences=n_sentences,
        tokens_per_sentence=n_tokens / n_sentences if n_sentences else 0.0,
        allcaps_ratio=caps / n_tokens if n_tokens else 0.0,
        digit_token_ratio=digits / n_tokens if n_tokens else 0.0,
        distinct_sentence_ratio=(
            len(set(sentences)) / n_sentences if n_sentences else 0.0
        ),
        distinct_word_ratio=len(set(words)) / len(words) if words else 0.0,
        cluster_word_ratio=clustered / len(words) if words else 0.0,
    )


def rule_quality_score(text: str) -> float:
    """Knowledge-free quality score in ``[0, 1]`` (higher is better).

    Starts from 1.0 and subtracts penalties for surface defects.  The
    penalty weights are calibrated against the synthetic curation corpus
    but express generic judgements (run-on scrape damage, shouting, digit
    soup, repetition, consonant-cluster gibberish) any web-scale filter
    would apply.  Two planted blind spots matter for the cascade:

    - pseudo-words without heavy consonant runs pass every rule, and
      marketing boilerplate is surface-clean, so some low-quality
      documents score high (rule false *keeps*);
    - the ALL-CAPS catalogue decoy triggers the shouting penalty on
      genuinely high-quality documents (rule false *drops*).

    The LLM rung of the cascade corrects both.
    """
    stats = quality_stats(text)
    if stats.n_tokens == 0:
        return 0.0
    score = 1.0
    # Run-on text: dropped terminal punctuation merges sentences.
    score -= max(0.0, stats.tokens_per_sentence - 12.0) * 0.035
    # Shouting: the decoy trap — high-quality docs with an OFFICIAL SPEC
    # line get wrongly penalised here, which is the point.
    score -= 2.2 * stats.allcaps_ratio
    # Digit soup.
    score -= max(0.0, stats.digit_token_ratio - 0.18) * 1.2
    # Repeated sentences read as spam.
    score -= 1.6 * (1.0 - stats.distinct_sentence_ratio)
    # Heavy word-level repetition.
    score -= max(0.0, 0.45 - stats.distinct_word_ratio) * 1.5
    # Gibberish tell: long consonant runs.
    score -= 6.0 * stats.cluster_word_ratio
    return max(0.0, min(1.0, score))
