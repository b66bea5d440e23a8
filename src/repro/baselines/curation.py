"""Non-LLM curation baselines: what a classical pipeline gets without the model.

Each baseline is the knowledge-free counterpart of one curation template:

- **threshold dedup** — the classic MinHash pipeline: candidates from the
  *simple* (knowledge-free) canonical form only, verified by a fixed raw
  Jaccard threshold.  No variant table, no adjudication of the gray zone.
- **rules-only quality** — :func:`repro.text.quality.rule_quality_score`
  against a fixed cut; inherits every blind spot of the surface features
  (pseudo-word junk it cannot read, ALL-CAPS decoys it wrongly punishes).
- **hard-scan decontamination** — flag only verbatim 8-gram hits; disguised
  splices (variant rewrites + typos) pass straight through.

These are honest fixed-configuration baselines: thresholds are constants
chosen once (documented below), not tuned per corpus against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.compiler.curation import (
    DEDUP_SHINGLE_N,
    dedup_candidate_pairs,
)
from repro.datasets.curation import CurationCorpus
from repro.ml.metrics import f1_score
from repro.text.overlap import build_ngram_index, overlap_profile
from repro.text.quality import rule_quality_score
from repro.text.shingle import exact_jaccard, shingle_ids, simple_canonical

__all__ = [
    "CurationBaselineResult",
    "DEDUP_JACCARD_THRESHOLD",
    "QUALITY_RULE_THRESHOLD",
    "threshold_dedup_flags",
    "rules_quality_flags",
    "hard_scan_contamination_flags",
    "evaluate_threshold_dedup",
    "evaluate_rules_quality",
    "evaluate_hard_scan_decontamination",
]

#: Fixed verification threshold of the classic MinHash dedup pipeline
#: (raw Jaccard over knowledge-free shingles; the conventional 0.5 cut).
DEDUP_JACCARD_THRESHOLD = 0.5

#: Fixed keep cut for the rules-only quality filter.  The rule score is
#: "1.0 minus penalties", so nominally clean documents sit high; 0.85 is
#: the midpoint of the score mass on reference corpora.
QUALITY_RULE_THRESHOLD = 0.85


@dataclass(frozen=True)
class CurationBaselineResult:
    """Per-document 0/1 flags of a baseline plus its F1 against ground truth."""

    baseline: str
    f1: float
    predictions: list[int]


def threshold_dedup_flags(records: Sequence[dict]) -> list[int]:
    """Duplicate flags from simple-canonical candidates + fixed Jaccard cut."""
    pairs = dedup_candidate_pairs(records, dual=False, shingle_n=DEDUP_SHINGLE_N)
    shingles = {
        record["id"]: shingle_ids(
            simple_canonical(str(record["text"])), DEDUP_SHINGLE_N
        )
        for record in records
    }
    duplicates = {
        max(a, b)
        for a, b in pairs
        if exact_jaccard(shingles[a], shingles[b]) >= DEDUP_JACCARD_THRESHOLD
    }
    return [int(record["id"] in duplicates) for record in records]


def rules_quality_flags(records: Sequence[dict]) -> list[int]:
    """Keep flags from the surface heuristic against a fixed cut."""
    return [
        int(rule_quality_score(str(record["text"])) >= QUALITY_RULE_THRESHOLD)
        for record in records
    ]


def hard_scan_contamination_flags(
    records: Sequence[dict], eval_items: Sequence[str]
) -> list[int]:
    """Contamination flags from verbatim hard 8-gram hits only."""
    hard_index = build_ngram_index(list(eval_items), 8)
    empty: dict = {}
    flags = []
    for record in records:
        profile = overlap_profile(
            str(record["text"]), hard_index, empty, hard_n=8, soft_n=8
        )
        flags.append(int(profile.hard_hits > 0))
    return flags


def _evaluate(
    corpus: CurationCorpus, name: str, predictions: list[int], labels: list[int]
) -> CurationBaselineResult:
    return CurationBaselineResult(
        baseline=name, f1=f1_score(labels, predictions), predictions=predictions
    )


def evaluate_threshold_dedup(corpus: CurationCorpus) -> CurationBaselineResult:
    docs = corpus.materialize()
    return _evaluate(
        corpus,
        "threshold_dedup",
        threshold_dedup_flags([d.record() for d in docs]),
        [int(d.is_duplicate) for d in docs],
    )


def evaluate_rules_quality(corpus: CurationCorpus) -> CurationBaselineResult:
    docs = corpus.materialize()
    return _evaluate(
        corpus,
        "rules_quality",
        rules_quality_flags([d.record() for d in docs]),
        [int(d.keep) for d in docs],
    )


def evaluate_hard_scan_decontamination(corpus: CurationCorpus) -> CurationBaselineResult:
    docs = corpus.materialize()
    return _evaluate(
        corpus,
        "hard_scan_decontamination",
        hard_scan_contamination_flags(
            [d.record() for d in docs], list(corpus.eval_set.items())
        ),
        [int(d.contaminated) for d in docs],
    )
