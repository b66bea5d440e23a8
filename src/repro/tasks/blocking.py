"""Blocking: candidate-pair generation for entity resolution.

The paper's Table 1 datasets are pre-paired, but a real ER deployment (two
raw tables, no pairs) needs a *blocking* stage first: cheaply pick the
record pairs worth sending to the (expensive) matcher.  This module
implements the standard TF-IDF token-blocking scheme — records sharing
high-weight tokens in a key attribute become candidates, ranked by weighted
overlap, with a per-record cap — backed by an inverted token index so the
scan is proportional to candidates, never to the |left|×|right| cross
product.

Token blocking has a known blind spot: a typo inside every shared token
(``"sierr nevada"`` vs ``"sierra nevada"``) leaves zero index overlap, and
the record silently loses all candidates.  Left records that come up empty
therefore fall back to a **sorted neighborhood** pass: the right side's key
texts are sorted once, the left text is binary-searched into that order,
and the few lexicographic neighbours on either side are screened with the
*banded* Levenshtein distance (:func:`repro.text.similarity
.levenshtein_distance` with ``max_distance``), which answers "within d
edits?" in O(n·d) and exits early otherwise.  Only neighbours clearing
``fallback_similarity`` become candidates — disjoint vocabularies still
produce nothing.

:func:`block_records` runs the array kernel :func:`_block_columnar` (sorted
token-id arrays, one ``searchsorted`` join, ``bincount`` score accumulation,
batched banded Levenshtein).  :func:`_block_scalar` (dict probes, per-pair
Levenshtein) is the reference the equivalence tests compare it against:
both accumulate each pair's TF-IDF score in ascending-token order, so the
float sums — and therefore every tie-break — are bitwise identical.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.text.normalize import normalize_text
from repro.text.similarity import TfIdfModel, levenshtein_distance, levenshtein_distance_many

__all__ = ["BlockingResult", "block_records"]


@dataclass(frozen=True)
class BlockingResult:
    """Candidate pairs plus blocking statistics."""

    pairs: list[tuple[int, int]]  # (left_index, right_index)
    candidates_considered: int
    reduction_ratio: float  # 1 - |candidates| / |cross product|

    def summary(self) -> str:
        """One-line rendering."""
        return (
            f"{len(self.pairs)} candidate pairs "
            f"(reduction {self.reduction_ratio:.1%})"
        )


def _neighborhood_candidates(
    text: str,
    sorted_right: list[tuple[str, int]],
    window: int,
    fallback_similarity: float,
) -> tuple[list[tuple[int, float]], int]:
    """Sorted-neighborhood rescue for a left record with no token overlap.

    Returns ``(candidates, examined)`` where candidates are
    ``(right_index, similarity)`` pairs clearing ``fallback_similarity``.
    """
    if not text or not sorted_right:
        return [], 0
    position = bisect_left(sorted_right, (text, -1))
    lo = max(0, position - window)
    hi = min(len(sorted_right), position + window)
    found: list[tuple[int, float]] = []
    examined = 0
    for neighbor_text, j in sorted_right[lo:hi]:
        examined += 1
        if not neighbor_text:
            continue
        longest = max(len(text), len(neighbor_text))
        # "similarity >= bar" == "distance <= (1 - bar) * longest"; the
        # banded computation only ever fills that diagonal.
        budget = int((1.0 - fallback_similarity) * longest)
        distance = levenshtein_distance(text, neighbor_text, max_distance=budget)
        if distance <= budget:
            found.append((j, 1.0 - distance / longest))
    return found, examined


def _block_scalar(
    left_texts: list[str],
    right_texts: list[str],
    model: TfIdfModel,
    max_candidates_per_record: int,
    min_shared_tokens: int,
    neighborhood_window: int,
    fallback_similarity: float,
) -> tuple[list[tuple[int, int]], int]:
    """Dict-probe reference implementation (the array kernel's oracle)."""
    index: dict[str, list[int]] = defaultdict(list)
    for j, text in enumerate(right_texts):
        for token in set(text.split()):
            index[token].append(j)
    sorted_right = sorted((text, j) for j, text in enumerate(right_texts))

    pairs: list[tuple[int, int]] = []
    considered = 0
    for i, text in enumerate(left_texts):
        scores: dict[int, float] = defaultdict(float)
        shared: dict[int, int] = defaultdict(int)
        # Ascending-token iteration pins the float accumulation order, so
        # scores — and score ties — never depend on set/hash order.
        for token in sorted(set(text.split())):
            weight = model.idf(token)
            for j in index.get(token, ()):
                scores[j] += weight
                shared[j] += 1
        considered += len(scores)
        eligible = [j for j in scores if shared[j] >= min_shared_tokens]
        eligible.sort(key=lambda j: (-scores[j], j))
        if not eligible and neighborhood_window > 0:
            rescued, examined = _neighborhood_candidates(
                text, sorted_right, neighborhood_window, fallback_similarity
            )
            considered += examined
            rescued.sort(key=lambda item: (-item[1], item[0]))
            eligible = [j for j, _ in rescued]
        for j in eligible[:max_candidates_per_record]:
            pairs.append((i, j))
    return pairs, considered


def _ranks_within_groups(group: np.ndarray) -> np.ndarray:
    """0-based rank of each element inside its (contiguous) group."""
    if not len(group):
        return np.empty(0, dtype=np.int64)
    boundary = np.empty(len(group), dtype=bool)
    boundary[0] = True
    boundary[1:] = group[1:] != group[:-1]
    starts = np.nonzero(boundary)[0]
    run_lengths = np.diff(np.append(starts, len(group)))
    return np.arange(len(group), dtype=np.int64) - np.repeat(starts, run_lengths)


def _block_columnar(
    left_texts: list[str],
    right_texts: list[str],
    model: TfIdfModel,
    max_candidates_per_record: int,
    min_shared_tokens: int,
    neighborhood_window: int,
    fallback_similarity: float,
) -> tuple[list[tuple[int, int]], int]:
    """Array-join implementation; bitwise-equal to :func:`_block_scalar`.

    The inverted-index probe becomes one ``searchsorted`` join between the
    left entry list and the token-sorted right entry list; per-pair scores
    are ``bincount`` sums over entries sorted by ``(i, j, token)`` — the
    same addition sequence the scalar loop performs — and the
    sorted-neighborhood rescue screens all windows with one batched banded
    Levenshtein call.
    """
    n_left, n_right = len(left_texts), len(right_texts)

    token_rows: dict[str, tuple[str, ...]] = {}
    for text in left_texts:
        if text not in token_rows:
            token_rows[text] = tuple(sorted(set(text.split())))
    for text in right_texts:
        if text not in token_rows:
            token_rows[text] = tuple(sorted(set(text.split())))
    row_sizes = np.fromiter(
        (len(row) for row in token_rows.values()), np.int64, count=len(token_rows)
    )
    flat_tokens = [t for row in token_rows.values() for t in row]
    if flat_tokens:
        # One vectorized unique over a fixed-width unicode array replaces
        # per-text dict encoding; numpy's code-point comparison matches
        # Python's sort order, so ids equal the sorted-vocabulary ranks
        # and each row's ids are already ascending.
        vocab_tokens, flat_ids = np.unique(np.array(flat_tokens), return_inverse=True)
        flat_ids = flat_ids.astype(np.int64, copy=False)
    else:
        vocab_tokens = np.empty(0, dtype="U1")
        flat_ids = np.empty(0, dtype=np.int64)
    idf = np.fromiter(
        (model.idf(t) for t in vocab_tokens), dtype=np.float64, count=len(vocab_tokens)
    )
    row_offsets = np.concatenate(([0], np.cumsum(row_sizes)))
    text_row = {text: k for k, text in enumerate(token_rows)}

    def entries(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        t_rows = np.fromiter((text_row[t] for t in texts), np.int64, count=len(texts))
        counts = row_sizes[t_rows]
        total = int(counts.sum())
        local = np.arange(total, dtype=np.int64)
        ids = flat_ids[local + np.repeat(row_offsets[t_rows] - (np.cumsum(counts) - counts), counts)]
        return ids, np.repeat(np.arange(len(texts), dtype=np.int64), counts)

    l_tid, l_row = entries(left_texts)
    r_tid, r_row = entries(right_texts)
    r_order = np.lexsort((r_row, r_tid))
    r_tid_sorted, r_row_sorted = r_tid[r_order], r_row[r_order]

    considered = 0
    has_eligible = np.zeros(n_left, dtype=bool)
    kept_i: list[np.ndarray] = []
    kept_j: list[np.ndarray] = []
    kept_rank: list[np.ndarray] = []

    starts = np.searchsorted(r_tid_sorted, l_tid, side="left")
    ends = np.searchsorted(r_tid_sorted, l_tid, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total:
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        positions = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
        entry_i = np.repeat(l_row, counts)
        entry_t = np.repeat(l_tid, counts)
        entry_j = r_row_sorted[positions]
        # Entries are generated with ascending tokens inside each left row,
        # so per (i, j) group the bincount adds idf weights in ascending
        # token order — exactly the scalar accumulation sequence — without
        # any entry sort; a single-key unique compacts the group ids.
        group_key = entry_i * np.int64(n_right) + entry_j
        keys, group_id = np.unique(group_key, return_inverse=True)
        scores = np.bincount(group_id, weights=idf[entry_t], minlength=len(keys))
        shared = np.bincount(group_id, minlength=len(keys))
        pair_i, pair_j = keys // n_right, keys % n_right
        considered += len(keys)

        eligible = shared >= min_shared_tokens
        elig_i, elig_j, elig_score = pair_i[eligible], pair_j[eligible], scores[eligible]
        has_eligible[elig_i] = True
        # Groups come out of np.unique ordered by (i, j); lexsort is stable,
        # so two keys suffice — equal (i, score) ties stay j-ascending.
        order = np.lexsort((-elig_score, elig_i))
        elig_i, elig_j = elig_i[order], elig_j[order]
        rank = _ranks_within_groups(elig_i)
        keep = rank < max_candidates_per_record
        kept_i.append(elig_i[keep])
        kept_j.append(elig_j[keep])
        kept_rank.append(rank[keep])

    if neighborhood_window > 0:
        sorted_order = sorted(range(n_right), key=lambda j: (right_texts[j], j))
        sorted_texts = [right_texts[j] for j in sorted_order]
        fb_i: list[int] = []
        fb_pos: list[int] = []
        for i in range(n_left):
            text = left_texts[i]
            if has_eligible[i] or not text:
                continue
            position = bisect_left(sorted_texts, text)
            lo = max(0, position - neighborhood_window)
            hi = min(n_right, position + neighborhood_window)
            considered += hi - lo
            for idx in range(lo, hi):
                if sorted_texts[idx]:
                    fb_i.append(i)
                    fb_pos.append(idx)
        if fb_i:
            a_texts = [left_texts[i] for i in fb_i]
            b_texts = [sorted_texts[p] for p in fb_pos]
            len_a = np.fromiter((len(t) for t in a_texts), np.int64, count=len(a_texts))
            len_b = np.fromiter((len(t) for t in b_texts), np.int64, count=len(b_texts))
            longest = np.maximum(len_a, len_b)
            budget = ((1.0 - fallback_similarity) * longest).astype(np.int64)
            distance = levenshtein_distance_many(a_texts, b_texts, max_distance=budget)
            admit = distance <= budget
            adm_i = np.asarray(fb_i, dtype=np.int64)[admit]
            adm_j = np.fromiter(
                (sorted_order[p] for p in fb_pos), np.int64, count=len(fb_pos)
            )[admit]
            similarity = 1.0 - distance[admit] / longest[admit]
            order = np.lexsort((adm_j, -similarity, adm_i))
            adm_i, adm_j = adm_i[order], adm_j[order]
            rank = _ranks_within_groups(adm_i)
            keep = rank < max_candidates_per_record
            kept_i.append(adm_i[keep])
            kept_j.append(adm_j[keep])
            kept_rank.append(rank[keep])

    if kept_i:
        all_i = np.concatenate(kept_i)
        all_j = np.concatenate(kept_j)
        all_rank = np.concatenate(kept_rank)
        order = np.lexsort((all_rank, all_i))
        pairs = list(zip(all_i[order].tolist(), all_j[order].tolist()))
    else:
        pairs = []
    return pairs, considered


def block_records(
    left: list[dict],
    right: list[dict],
    key: str,
    max_candidates_per_record: int = 5,
    min_shared_tokens: int = 1,
    neighborhood_window: int = 3,
    fallback_similarity: float = 0.55,
) -> BlockingResult:
    """TF-IDF token blocking between two record collections.

    For every left record, the ``max_candidates_per_record`` right records
    with the highest shared-token TF-IDF weight become candidate pairs.
    Records sharing fewer than ``min_shared_tokens`` tokens are never paired
    by the index; left records the index leaves *empty* get one
    sorted-neighborhood pass over the ``neighborhood_window`` nearest right
    keys in lexicographic order, admitted only above
    ``fallback_similarity`` edit similarity (banded Levenshtein).  Set
    ``neighborhood_window=0`` to disable the fallback.
    """
    if not left or not right:
        return BlockingResult([], 0, 1.0)

    def key_text(record: dict) -> str:
        return normalize_text(str(record.get(key) or ""))

    left_texts = [key_text(r) for r in left]
    right_texts = [key_text(r) for r in right]
    model = TfIdfModel(left_texts + right_texts)

    pairs, considered = _block_columnar(
        left_texts,
        right_texts,
        model,
        max_candidates_per_record,
        min_shared_tokens,
        neighborhood_window,
        fallback_similarity,
    )
    total = len(left) * len(right)
    reduction = 1.0 - len(pairs) / total if total else 1.0
    return BlockingResult(pairs=pairs, candidates_considered=considered, reduction_ratio=reduction)
