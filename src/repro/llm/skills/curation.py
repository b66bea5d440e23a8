"""Corpus-curation skills: document quality judgement and contamination
adjudication.

Both skills embody *knowledge the mechanical rungs of their cascades lack*:

- :class:`QualityJudgmentSkill` knows English (well, the corpus's
  vocabulary): planted pseudo-words are obvious gibberish to it, marketing
  boilerplate is recognised as boilerplate, and the ALL-CAPS catalogue
  decoy that fools the surface heuristics is forgiven — catalogues shout,
  that is not a quality defect.
- :class:`ContaminationJudgmentSkill` renormalises disguise away: a
  benchmark item spliced into a document through variant rewrites
  (``St.`` → ``Street``) and typos still *reads* as the same sentence, so
  fuzzy token containment under :func:`repro.text.shingle.knowledge_canonical`
  recovers what the raw n-gram scan lost.

Both use the margin-keyed error model of
:meth:`repro.llm.knowledge.KnowledgeBase.judgement_flip`: borderline
documents are where the model errs, and worked examples in the prompt
suppress part of that noise (same prompt-engineering economy as entity
matching).
"""

from __future__ import annotations

import re

from repro.datasets.curation import BOILERPLATE_PHRASES, curation_vocabulary
from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills.base import (
    Skill,
    count_examples,
    extract_json_field,
    extract_text_field,
)
from repro.text.quality import quality_stats
from repro.text.shingle import knowledge_canonical
from repro.text.similarity import jaro_winkler_similarity

__all__ = [
    "QualityJudgmentSkill",
    "ContaminationJudgmentSkill",
    "knowledge_quality_score",
    "containment_score",
    "QUALITY_THRESHOLD",
    "CONTAINMENT_THRESHOLD",
]

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

_QUALITY_TRIGGER = re.compile(
    r"document quality|quality filter|high[- ]quality|low[- ]quality|worth keeping",
    re.IGNORECASE,
)
_CONTAMINATION_TRIGGER = re.compile(
    r"contaminat|benchmark leak|leak.*benchmark|eval(?:uation)? (?:set|item)|decontam",
    re.IGNORECASE,
)

#: Documents scoring at or above this are judged worth keeping.  Calibrated
#: on the synthetic curation corpus: keeps concentrate at 0.9–1.0, drops
#: below 0.85, with a genuine ambiguity band around the cut.
QUALITY_THRESHOLD = 0.86

#: Benchmark-containment level judged as contamination.  Disguised splices
#: score ≥ 0.9; incidental phrase overlap with a benchmark item stays
#: ≤ 0.55 — the threshold sits mid-gap.
CONTAINMENT_THRESHOLD = 0.74


def knowledge_quality_score(text: str) -> float:
    """Vocabulary-aware quality score in ``[0, 1]`` (higher is better).

    Shares the honest surface signals with the rule score (run-on text,
    repetition) but adds what only a reader with a vocabulary can see —
    gibberish words, marketing boilerplate — and deliberately omits the
    ALL-CAPS penalty the decoy exploits.
    """
    stats = quality_stats(text)
    if stats.n_tokens == 0:
        return 0.0
    vocabulary = curation_vocabulary()
    words = [w.lower() for w in _WORD_RE.findall(text)]
    long_words = [w for w in words if len(w) >= 6]
    junk = sum(1 for w in long_words if w not in vocabulary)
    junk_fraction = junk / max(1, len(words))
    lowered = text.lower()
    boilerplate = sum(1 for phrase in BOILERPLATE_PHRASES if phrase in lowered)
    score = 1.0
    score -= 10.0 * junk_fraction
    score -= 0.38 * boilerplate
    score -= max(0.0, stats.tokens_per_sentence - 12.0) * 0.03
    score -= 1.4 * (1.0 - stats.distinct_sentence_ratio)
    score -= max(0.0, 0.45 - stats.distinct_word_ratio) * 1.5
    return max(0.0, min(1.0, score))


#: Jaro-Winkler level at which a typo'd token still counts as contained.
_FUZZY_MATCH = 0.88

#: How far below :data:`_FUZZY_MATCH` a bound must be to skip the pair: many
#: float roundings wide, so rounding in the bound or in the similarity
#: cannot skip a pair that matches.
_BOUND_MARGIN = 1e-9


def _jaro_winkler_bound(a: str, b: str) -> float:
    """An upper bound on ``jaro_winkler_similarity(a, b)`` for non-empty strings.

    Jaro is ``(m/|a| + m/|b| + (m - t)/m) / 3`` with at most
    ``min(|a|, |b|)`` matches ``m``, so at most ``(min/|a| + min/|b| + 1) / 3``;
    the Winkler boost grows with Jaro and with the shared prefix (up to 4
    characters), which is known exactly.
    """
    shortest = min(len(a), len(b))
    jaro = (shortest / len(a) + shortest / len(b) + 1.0) / 3.0
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _fuzzy_contained(token: str, pool: list[str]) -> bool:
    """Whether some word of ``pool`` is within Jaro-Winkler 0.88 of ``token``.

    A word whose bound is below the cut is skipped before the similarity is
    computed; the verdict is the unpruned scan's.
    """
    floor = _FUZZY_MATCH - _BOUND_MARGIN
    return any(
        jaro_winkler_similarity(token, other) >= _FUZZY_MATCH
        for other in pool
        if _jaro_winkler_bound(token, other) >= floor
    )


def containment_score(benchmark: str, document: str) -> float:
    """Fraction of the benchmark item's tokens found in the document.

    Both sides pass through the knowledge canonicaliser first, so variant
    rewrites collapse; typo'd tokens still count through per-token fuzzy
    matching (Jaro-Winkler ≥ 0.88).
    """
    item_tokens = knowledge_canonical(benchmark).split()
    doc_tokens = knowledge_canonical(document).split()
    if not item_tokens:
        return 0.0
    doc_set = set(doc_tokens)
    fuzzy_pool = [t for t in doc_set if len(t) >= 4]
    matched = 0
    for token in item_tokens:
        if token in doc_set:
            matched += 1
        elif len(token) >= 4 and _fuzzy_contained(token, fuzzy_pool):
            matched += 1
    return matched / len(item_tokens)


class QualityJudgmentSkill(Skill):
    """Keep/drop judgement for one document, with calibrated noise."""

    name = "doc_quality"
    threshold = QUALITY_THRESHOLD

    def matches(self, prompt: str) -> bool:
        return bool(_QUALITY_TRIGGER.search(prompt)) and (
            extract_json_field(prompt, "Document") is not None
        )

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        document = extract_json_field(prompt, "Document")
        if document is None:
            return "I need the document as a 'Document:' JSON object."
        text = str(document.get("text", ""))
        score = knowledge_quality_score(text)
        verdict = score >= QUALITY_THRESHOLD
        margin = abs(score - QUALITY_THRESHOLD)
        extra_noise = 0.0 if count_examples(prompt) > 0 else 0.18
        key = str(document.get("id", text[:120]))
        if kb.judgement_flip("quality", key, margin, extra_noise):
            verdict = not verdict
        answer = "Yes" if verdict else "No"
        reason = (
            "reads as coherent, informative prose"
            if verdict
            else "shows gibberish, boilerplate or scrape damage"
        )
        return f"{answer}. The document {reason} (quality {score:.2f})."


class ContaminationJudgmentSkill(Skill):
    """Adjudicate whether a document leaks a specific benchmark item."""

    name = "decontam"
    threshold = CONTAINMENT_THRESHOLD

    def matches(self, prompt: str) -> bool:
        return bool(_CONTAMINATION_TRIGGER.search(prompt)) and (
            extract_json_field(prompt, "Document") is not None
            and extract_text_field(prompt, "Benchmark") is not None
        )

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        document = extract_json_field(prompt, "Document")
        benchmark = extract_text_field(prompt, "Benchmark")
        if document is None or benchmark is None:
            return (
                "I need a 'Document:' JSON object and a 'Benchmark:' line "
                "to compare."
            )
        text = str(document.get("text", ""))
        score = containment_score(benchmark, text)
        verdict = score >= CONTAINMENT_THRESHOLD
        margin = abs(score - CONTAINMENT_THRESHOLD)
        extra_noise = 0.0 if count_examples(prompt) > 0 else 0.18
        key = f"{document.get('id', text[:80])}|{benchmark[:80]}"
        if kb.judgement_flip("contamination", key, margin, extra_noise):
            verdict = not verdict
        answer = "Yes" if verdict else "No"
        reason = (
            "the benchmark item's content appears in the document, "
            "allowing for superficial rewording"
            if verdict
            else "the overlap is incidental phrasing, not the benchmark item"
        )
        return f"{answer}. Judged that {reason} (containment {score:.2f})."
