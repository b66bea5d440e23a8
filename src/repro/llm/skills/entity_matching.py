"""Entity-matching skill: "are these two records the same entity?".

The simulated model's advantage over classical matchers is *world
knowledge*: it can undo abbreviations, unit changes and accent noise before
comparing (normalisation the generator's corruptions are designed to be
invertible by), so its raw judgement is strong.  Calibrated noise keyed to
the pair's decision margin then makes it fallible in a realistic way:
borderline pairs are the ones it gets wrong.

Prompt quality matters, as in the paper: a bare prompt (the FMs baseline)
suffers an extra-noise penalty; a well-engineered prompt with a task
description and worked examples (what Lingua Manga's templates emit) does
not.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills.base import Skill, count_examples, extract_json_field
from repro.text.normalize import extract_numbers, normalize_text
from repro.text.similarity import (
    jaccard_similarity,
    jaro_winkler_similarity,
    numeric_similarity,
    qgram_similarity,
)

__all__ = ["EntityMatchingSkill", "match_score", "judge_pair", "MATCH_THRESHOLD"]

_TRIGGER = re.compile(
    r"same entity|entities .*equivalent|entity resolution|refer to the same|"
    r"duplicate record|match.*records?",
    re.IGNORECASE | re.DOTALL,
)

# Attributes that identify an entity strongly when similar.
_KEY_HINTS = ("name", "title", "song", "beer", "restaurant", "product")


def _attribute_weight(attribute: str) -> float:
    lowered = attribute.lower()
    if any(hint in lowered for hint in _KEY_HINTS):
        return 3.0
    if lowered.startswith("_") or lowered in ("id", "rid", "source"):
        return 0.0
    return 1.0


def _generic_tokens() -> frozenset[str]:
    """Tokens that carry little identity: styles, genres, editions, kinds.

    A person (or LLM) comparing "Wild Bastard IPA" with "Wild Otter IPA"
    knows the style word "IPA" is shared by thousands of beers — identity
    lives in the distinctive words.  This is world knowledge, so the list is
    derived from the same catalogue the knowledge base uses.
    """
    from repro.datasets import catalog

    words: set[str] = set()
    for style in catalog.BEER_STYLES:
        words.update(normalize_text(style).split())
    for genre in catalog.GENRES:
        words.update(normalize_text(genre).split())
    for cuisine in catalog.CUISINES:
        words.update(normalize_text(cuisine).split())
    words.update(
        "brewery brewing company beer craft co incorporated limited".split()
    )
    # Long forms the sources rewrite style names into.
    words.update(
        "india pale ale imperial extra special bitter wheat white".split()
    )
    words.update("album version explicit single deluxe edition remastered".split())
    words.update(
        "bistro grill kitchen tavern cafe table house diner trattoria "
        "brasserie cantina osteria restaurant".split()
    )
    words.update("the a an of and featuring feat ft".split())
    return frozenset(words)


_GENERIC_TOKENS = _generic_tokens()


def _fuzzy_containment(a: str, b: str) -> float:
    """Weighted best-token containment of the *shorter* value in the longer.

    This is the judgement a human (or LLM) makes for identifying attributes:
    "Midnight Dreams (Album Version)" still *contains* "Midnight Dreams", so
    the pair matches; "Wild Otter IPA" shares the style word with "Wild
    Bastard IPA" but fails containment on the distinguishing token.  Typos
    are absorbed by Jaro-Winkler at the token level; generic tokens (styles,
    genres, editions) contribute a small bonus rather than full weight.
    """
    ta = a.split()
    tb = b.split()
    if not ta or not tb:
        return 1.0 if ta == tb else 0.0
    shorter, longer = (ta, tb) if len(ta) <= len(tb) else (tb, ta)
    distinctive = [t for t in shorter if t not in _GENERIC_TOKENS]
    generic = [t for t in shorter if t in _GENERIC_TOKENS]

    def best(token: str) -> float:
        if token in longer:
            return 1.0  # what Jaro-Winkler gives equal strings, and its maximum
        return max(jaro_winkler_similarity(token, other) for other in longer)

    if distinctive:
        scores = [best(t) for t in distinctive]
        # Soft-min: every distinctive token must match — one clearly
        # different word ("Bastard" vs "Otter") sinks the pair even when the
        # rest agrees, while a single typo'd token only dents the score.
        distinctive_score = 0.5 * min(scores) + 0.5 * (sum(scores) / len(scores))
    else:
        distinctive_score = 1.0  # value is all-generic; fall back to generic match
    generic_score = (
        sum(best(t) for t in generic) / len(generic) if generic else 1.0
    )
    return 0.9 * distinctive_score + 0.1 * generic_score


def match_score(left: Mapping[str, Any], right: Mapping[str, Any]) -> float:
    """Similarity score in ``[0, 1]`` after world-knowledge normalisation.

    Identifying attributes (names/titles) use fuzzy containment — the edit
    tolerance plus suffix tolerance an LLM exhibits — while secondary
    attributes use a blended string similarity.
    """
    total_weight = 0.0
    total = 0.0
    for attribute in sorted(set(left) & set(right)):
        weight = _attribute_weight(attribute)
        if weight == 0.0:
            continue
        a_raw, b_raw = left[attribute], right[attribute]
        if a_raw is None or b_raw is None or a_raw == "" or b_raw == "":
            continue
        a = normalize_text(str(a_raw))
        b = normalize_text(str(b_raw))
        numbers_a, numbers_b = extract_numbers(a), extract_numbers(b)
        if numbers_a and numbers_b and not (set(a.split()) - set(str(x) for x in numbers_a)):
            # Numbers are compared sharply: 5.2%% vs 6.1%% ABV means two
            # different beers, even though the relative gap is small.
            denominator = max(abs(numbers_a[0]), abs(numbers_b[0]), 1e-9)
            sim = max(0.0, 1.0 - 5.0 * abs(numbers_a[0] - numbers_b[0]) / denominator)
        elif weight >= 3.0:
            sim = _fuzzy_containment(a, b)
        else:
            jaccard = jaccard_similarity(a, b)
            sim = max(
                0.45 * jaccard
                + 0.35 * jaro_winkler_similarity(a, b)
                + 0.20 * qgram_similarity(a, b),
                jaccard,
            )
        total += weight * sim
        total_weight += weight
    if total_weight == 0.0:
        return 0.0
    return total / total_weight


MATCH_THRESHOLD = 0.71


def judge_pair(
    left: Mapping[str, Any],
    right: Mapping[str, Any],
    kb: KnowledgeBase,
    has_examples: bool,
    described: bool,
) -> tuple[bool, float]:
    """The model's verdict for one pair; ``(verdict, score)``.

    Prompt engineering matters: worked examples and an explicit task
    description suppress the extra noise a bare prompt suffers.  Bare
    prompts also degrade with record complexity — attribute-rich and
    null-bearing records are exactly where serialization into a naive
    prompt goes wrong (the FMs regime).  The noise roll is keyed on the
    pair's content, so batched and single prompts of equal quality yield
    identical verdicts.
    """
    score = match_score(left, right)
    verdict = score >= MATCH_THRESHOLD
    margin = abs(score - MATCH_THRESHOLD)
    extra_noise = 0.0
    if not has_examples:
        extra_noise += 0.26
        n_attributes = max(len(left), len(right))
        extra_noise += 0.09 * max(0, n_attributes - 4)
        if any(v is None for v in left.values()) or any(
            v is None for v in right.values()
        ):
            extra_noise += 0.12
    if not described:
        extra_noise += 0.10
    pair_key = f"{sorted(left.items())!r}|{sorted(right.items())!r}"
    if kb.match_flip(pair_key, margin, extra_noise):
        verdict = not verdict
    return verdict, score


class EntityMatchingSkill(Skill):
    """Judge record-pair equivalence with calibrated, margin-aware noise."""

    name = "entity_matching"
    threshold = MATCH_THRESHOLD

    def matches(self, prompt: str) -> bool:
        return bool(_TRIGGER.search(prompt)) and (
            extract_json_field(prompt, "Record A") is not None
            or "record a" in prompt.lower()
        )

    def respond(self, prompt: str, kb: KnowledgeBase) -> str:
        left = extract_json_field(prompt, "Record A")
        right = extract_json_field(prompt, "Record B")
        if left is None or right is None:
            return (
                "I need both records to compare. Please provide 'Record A:' "
                "and 'Record B:' as JSON objects."
            )
        has_examples = count_examples(prompt) > 0
        described = "task" in prompt.lower() and len(prompt) > 220
        verdict, score = judge_pair(left, right, kb, has_examples, described)
        answer = "Yes" if verdict else "No"
        return (
            f"{answer}. Comparing the two records on their shared attributes, "
            f"they {'appear to describe the same entity' if verdict else 'appear to be different entities'} "
            f"(similarity {score:.2f})."
        )
