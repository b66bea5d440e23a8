"""Columnar kernels against their scalar references — a kernel micro-bench.

Two kernels are measured against the reference functions the equivalence
suites compare them with, on synthetic corpora sized by
``BENCH_COLUMNAR_RECORDS`` (default 100k records):

- **blocking**: ``_block_columnar`` (one searchsorted join + bincount
  scores + batched banded Levenshtein rescue) vs ``_block_scalar``
  (dict probes, per-pair Levenshtein), both downstream of the shared
  TF-IDF model build;
- **baseline feature extraction**: ``PairFeatureExtractor.transform`` vs
  stacked ``transform_pair`` rows over the full Magellan/Ditto metric menu.

The reference side of feature extraction is measured on a
``BENCH_COLUMNAR_SCALAR_SAMPLE`` subset (default 4000 pairs) and
rate-extrapolated — running the per-pair oracle over all 100k pairs
would take minutes and adds no information.  Both paths are also checked
for *identical output* while being timed, so the speedup can never come
from computing something different.

Acceptance gate: ``BENCH_COLUMNAR_MIN_SPEEDUP`` (default 5.0) on both
kernels.  CI smoke narrows the corpus via the env knobs.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time

import numpy as np

from repro.ml.features import PAIR_FEATURE_NAMES, PairFeatureExtractor
from repro.tasks.blocking import _block_columnar, _block_scalar
from repro.text.normalize import normalize_text
from repro.text.similarity import TfIdfModel

from _harness import emit, emit_json

N_RECORDS = int(os.environ.get("BENCH_COLUMNAR_RECORDS", "100000"))
SCALAR_SAMPLE = int(os.environ.get("BENCH_COLUMNAR_SCALAR_SAMPLE", "4000"))
MIN_SPEEDUP = float(os.environ.get("BENCH_COLUMNAR_MIN_SPEEDUP", "5.0"))
REPEATS = int(os.environ.get("BENCH_COLUMNAR_REPEATS", "2"))


def _best_of(fn):
    """Best-of-``REPEATS`` wall time: damps scheduler/cache noise for both
    contenders equally.  Returns ``(seconds, result)``."""
    best = float("inf")
    result = None
    for _ in range(max(REPEATS, 1)):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 9)))
        for _ in range(size)
    ]


def _synthetic_records(n: int, seed: int, dirty_fraction: float = 0.0) -> list[dict]:
    """Product-ish records: multi-word name, short brand, numeric field.

    The token and brand pools are derived from fixed seeds so that two
    record streams (``seed=1`` vs ``seed=2``) describe the same domain —
    real ER sides share a vocabulary; disjoint pools would push every
    record into the Levenshtein rescue and benchmark nothing else.

    ``dirty_fraction`` of the records get OCR-grade corruption: one
    deletion in *every* name token, the documented blind spot of token
    blocking, which routes those records through the sorted-neighborhood
    rescue — the regime a curation deployment over dirty data lives in.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(random.Random(1234), max(1000, n // 4))
    brands = _vocabulary(random.Random(4321), max(50, n // 200))
    records = []
    for _ in range(n):
        name = " ".join(rng.choice(vocab) for _ in range(4))
        if rng.random() < dirty_fraction:
            name = " ".join(
                token[:k] + token[k + 1 :]
                for token in name.split()
                for k in (rng.randrange(len(token)),)
            )
        elif rng.random() < 0.1:  # light typos keep the rescue gate honest
            name = name.replace(name[rng.randrange(len(name))], "", 1)
        records.append(
            {
                "name": name,
                "brand": rng.choice(brands) if rng.random() > 0.05 else None,
                "abv": f"{rng.uniform(3, 12):.1f}%" if rng.random() > 0.1 else "",
            }
        )
    return records


def test_blocking_speedup():
    per_side = max(N_RECORDS // 2, 10)
    left = _synthetic_records(per_side, seed=1, dirty_fraction=0.4)
    right = _synthetic_records(per_side, seed=2)
    left_texts = [normalize_text(str(r.get("name") or "")) for r in left]
    right_texts = [normalize_text(str(r.get("name") or "")) for r in right]
    model = TfIdfModel(left_texts + right_texts)
    params = dict(
        max_candidates_per_record=5,
        min_shared_tokens=1,
        neighborhood_window=3,
        fallback_similarity=0.55,
    )

    scalar_seconds, (scalar_pairs, scalar_considered) = _best_of(
        lambda: _block_scalar(left_texts, right_texts, model, **params)
    )
    columnar_seconds, (columnar_pairs, columnar_considered) = _best_of(
        lambda: _block_columnar(left_texts, right_texts, model, **params)
    )

    assert columnar_pairs == scalar_pairs
    assert columnar_considered == scalar_considered
    speedup = scalar_seconds / columnar_seconds
    emit(
        "columnar_blocking",
        f"blocking hot path, {per_side:,} x {per_side:,} records "
        f"({len(scalar_pairs):,} candidate pairs):\n"
        f"scalar   {scalar_seconds:8.3f}s\n"
        f"columnar {columnar_seconds:8.3f}s\n"
        f"speedup  {speedup:7.1f}x (identical pairs and counts)",
    )
    emit_json(
        "columnar_blocking",
        [
            {"name": "scalar", "wall_seconds": scalar_seconds},
            {"name": "columnar", "wall_seconds": columnar_seconds},
        ],
        speedup=speedup,
        candidate_pairs=len(scalar_pairs),
    )
    assert speedup >= MIN_SPEEDUP


def _catalog_records(n: int, seed: int) -> list[dict]:
    """Product records with heavy-tailed name tokens.

    Real attribute-value tokens are zipf-ish; ``1/sqrt(rank)`` keeps the
    head common without one stop-word dominating the join.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(random.Random(1234), 6000)
    weights = [1.0 / math.sqrt(rank) for rank in range(1, len(vocab) + 1)]
    cum_weights = list(itertools.accumulate(weights))
    brands = _vocabulary(random.Random(4321), 60)
    records = []
    for _ in range(n):
        name = " ".join(rng.choices(vocab, cum_weights=cum_weights, k=4))
        if rng.random() < 0.1:
            name = name.replace(name[rng.randrange(len(name))], "", 1)
        records.append(
            {
                "name": name,
                "brand": rng.choice(brands) if rng.random() > 0.05 else None,
                "abv": f"{rng.uniform(3, 12):.1f}%" if rng.random() > 0.1 else "",
            }
        )
    return records


def _candidate_pairs(n_pairs: int, seed: int) -> list[tuple[dict, dict]]:
    """Blocking-shaped pair workload.

    Downstream of blocking each left record appears in up to
    ``max_candidates_per_record`` pairs and short attributes repeat across
    the batch — the shape the columnar cache exploits — so the bench pairs
    mirror that instead of zipping two fully unique record streams.
    """
    per_record = 5
    rng = random.Random(seed)
    left = _catalog_records(max(n_pairs // per_record, 1), seed + 10)
    right = _catalog_records(max(n_pairs // per_record, 1), seed + 20)
    pairs = [
        (record, rng.choice(right)) for record in left for _ in range(per_record)
    ]
    rng.shuffle(pairs)
    return pairs[:n_pairs]


def test_feature_extraction_speedup():
    n_pairs = max(N_RECORDS, 10)
    sample = min(SCALAR_SAMPLE, n_pairs)
    pairs = _candidate_pairs(n_pairs, seed=3)
    attributes = ("name", "brand", "abv")

    def reference_rows():
        extractor = PairFeatureExtractor(attributes)
        return np.stack(
            [extractor.transform_pair(left, right) for left, right in pairs[:sample]]
        )

    scalar_seconds, scalar_matrix = _best_of(reference_rows)
    scalar_rate = sample / scalar_seconds

    columnar_seconds, columnar_matrix = _best_of(
        lambda: PairFeatureExtractor(attributes).transform(pairs)
    )
    columnar_rate = n_pairs / columnar_seconds

    # Equivalence while being timed: the sampled prefix must be bit-equal.
    assert np.array_equal(columnar_matrix[:sample], scalar_matrix)
    speedup = columnar_rate / scalar_rate
    emit(
        "columnar_features",
        f"pair feature extraction ({len(attributes)} attributes, "
        f"{len(PAIR_FEATURE_NAMES)} metrics):\n"
        f"scalar   {scalar_rate:10,.0f} pairs/s (measured on {sample:,})\n"
        f"columnar {columnar_rate:10,.0f} pairs/s (measured on {n_pairs:,})\n"
        f"speedup  {speedup:7.1f}x (bit-identical features)",
    )
    emit_json(
        "columnar_features",
        [
            {
                "name": "scalar",
                "wall_seconds": scalar_seconds,
                "pairs_per_sec": scalar_rate,
            },
            {
                "name": "columnar",
                "wall_seconds": columnar_seconds,
                "pairs_per_sec": columnar_rate,
            },
        ],
        speedup=speedup,
    )
    assert speedup >= MIN_SPEEDUP
