"""N-gram overlap scanning for downstream-task decontamination.

Decontamination asks: does a training document leak text from a held-out
evaluation set?  The standard mechanical scan (GPT-3 / Dolma style) indexes
every word ``n``-gram of the eval set and flags documents whose n-grams
collide.  Two scan granularities are used here:

- **hard** n-grams (default ``n=8``): a collision is near-certain leakage —
  an 8-gram shared by accident is vanishingly unlikely in this corpus.
- **soft** n-grams (default ``n=4``): short enough that *disguised* splices
  (variant rewrites of an eval item — ``St.`` vs ``Street``) still collide
  on the unmodified stretches, but also short enough to produce innocent
  collisions.  Soft hits are *evidence*, not verdicts.

The curation template turns this into a cascade: hard hit → contaminated
(no LLM call), no soft hits → clean (no LLM call), soft hits only →
borderline, adjudicated by the LLM, which can renormalise the disguise away
(see ``ContaminationJudgmentSkill``).

Scans run over :func:`repro.text.shingle.simple_canonical` text, so the
mechanical rungs stay knowledge-free; the knowledge lives in the LLM rung.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.text.shingle import simple_canonical

__all__ = [
    "OverlapProfile",
    "build_ngram_index",
    "ngram_set",
    "overlap_profile",
]


def _token_ngrams(tokens: list[str], n: int) -> set[tuple[str, ...]]:
    if n < 1:
        raise ValueError(f"n-gram width must be at least 1, got {n}")
    if len(tokens) < n:
        return {tuple(tokens)} if tokens else set()
    # ``n`` staggered views zipped together: the windows, built in C.
    return set(zip(*[tokens[i:] for i in range(n)]))


def ngram_set(text: str, n: int) -> set[tuple[str, ...]]:
    """All word ``n``-grams of ``text`` (already canonicalised by caller).

    Texts shorter than ``n`` words yield their one whole-text gram; ``n``
    below 1 raises ``ValueError`` (width 0 would make every text share the
    empty gram).
    """
    return _token_ngrams(text.split(), n)


def build_ngram_index(
    items: Iterable[str], n: int
) -> dict[tuple[str, ...], int]:
    """Map each eval-set ``n``-gram to the index of the item containing it.

    Items are simple-canonicalised before shingling.  When two items share
    an n-gram the lowest item index wins — deterministic regardless of
    iteration order because items are processed in sequence and only
    missing keys are inserted.
    """
    index: dict[tuple[str, ...], int] = {}
    for item_index, item in enumerate(items):
        for gram in ngram_set(simple_canonical(item), n):
            index.setdefault(gram, item_index)
    return index


@dataclass(frozen=True)
class OverlapProfile:
    """Result of scanning one document against an eval-set n-gram index."""

    hard_hits: int  # hard n-grams of the doc found in the eval index
    soft_hits: int  # soft n-grams of the doc found in the eval index
    doc_ngrams: int  # total hard n-grams in the doc
    best_item: int  # eval item with the most soft collisions (-1: none)

    @property
    def hard_fraction(self) -> float:
        return self.hard_hits / self.doc_ngrams if self.doc_ngrams else 0.0


def overlap_profile(
    text: str,
    hard_index: Mapping[tuple[str, ...], int],
    soft_index: Mapping[tuple[str, ...], int],
    *,
    hard_n: int = 8,
    soft_n: int = 4,
) -> OverlapProfile:
    """Scan one document against pre-built hard and soft eval indexes."""
    tokens = simple_canonical(text).split()
    hard_grams = _token_ngrams(tokens, hard_n)
    # ``set & keys`` probes the index once per document n-gram, in C.
    soft_found = _token_ngrams(tokens, soft_n) & soft_index.keys()
    votes = Counter(soft_index[gram] for gram in soft_found)
    best_item = -1
    if votes:
        # Highest vote count; ties broken by lowest item index so the
        # profile is independent of dict iteration order.
        best_item = min(votes, key=lambda item: (-votes[item], item))
    return OverlapProfile(
        hard_hits=len(hard_grams & hard_index.keys()),
        soft_hits=len(soft_found),
        doc_ngrams=len(hard_grams),
        best_item=best_item,
    )
