"""String similarity metrics, scalar and vectorized.

These metrics are the backbone of the classical entity-resolution baselines
(Magellan-style feature vectors, paper Table 1) and of the blocking stage of
the built-in entity-resolution template.  All functions return a similarity
in ``[0, 1]`` where ``1`` means identical.

A metric exists in up to two forms: the original **scalar** implementation
(one pair per call, plain Python) and a **batch** ``*_many`` variant that
evaluates many pairs at once over the columnar encodings of
:mod:`repro.storage.columnar` (padded codepoint matrices for edit metrics,
token-id sets over a shared vocabulary for set metrics).  The scalar forms
are the semantic oracle: the batch forms are property-tested against them
(`tests/text/test_columnar_equivalence.py`) — bit-exact for the integer-
derived metrics (Levenshtein, the set family, Jaro-Winkler, Monge-Elkan)
and within ``1e-12`` for the accumulation-order-sensitive TF-IDF cosine.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from repro.storage.columnar import Vocabulary, pack_codepoints
from repro.text.tokenize import char_ngrams, word_tokenize

__all__ = [
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "overlap_coefficient",
    "monge_elkan_similarity",
    "numeric_similarity",
    "TfIdfModel",
    "levenshtein_distance_many",
    "levenshtein_similarity_many",
    "jaro_winkler_similarity_many",
    "jaccard_similarity_many",
    "overlap_coefficient_many",
    "monge_elkan_similarity_many",
    "numeric_similarity_many",
]


def levenshtein_distance(a: str, b: str, max_distance: int | None = None) -> int:
    """Classic edit distance (insert/delete/substitute, all cost 1).

    With ``max_distance`` the computation runs *banded*: only the diagonal
    band of width ``2·max_distance + 1`` is filled, which is O(n·d) instead
    of O(n·m), and the scan exits early the moment every cell in a row
    exceeds the bound.  When the true distance is larger than
    ``max_distance`` the return value is ``max_distance + 1`` (a sentinel,
    not the exact distance) — callers asking "are these within d edits?"
    get their answer without paying for the full matrix.
    """
    if a == b:
        return 0
    if not a:
        return len(b) if max_distance is None else min(len(b), max_distance + 1)
    if not b:
        return len(a) if max_distance is None else min(len(a), max_distance + 1)
    if len(a) < len(b):
        a, b = b, a
    if max_distance is not None:
        if max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        cutoff = max_distance + 1
        # Lengths differing by more than the bound cannot be within it.
        if len(a) - len(b) > max_distance:
            return cutoff
        infinity = cutoff + 1
        previous = [j if j <= max_distance else infinity for j in range(len(b) + 1)]
        for i, ca in enumerate(a, start=1):
            lo = max(1, i - max_distance)
            hi = min(len(b), i + max_distance)
            current = [infinity] * (len(b) + 1)
            if lo == 1:
                current[0] = i if i <= max_distance else infinity
            best = current[0] if lo == 1 else infinity
            for j in range(lo, hi + 1):
                cost = 0 if ca == b[j - 1] else 1
                value = min(
                    previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost
                )
                current[j] = value
                if value < best:
                    best = value
            if best > max_distance:
                return cutoff  # early exit: the whole band exceeded the bound
            previous = current
        return previous[-1] if previous[-1] <= max_distance else cutoff
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalised to a ``[0, 1]`` similarity."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity: order-tolerant character matching, in O(|a| + |b|).

    The greedy pass matches ``a[i]`` to the leftmost unmatched equal
    character of ``b`` within ``window`` of ``i``.  Windows only move
    right, so per character the positions of ``b`` are taken in increasing
    order, and one that falls below a window is below every later one:
    each character keeps a stack of its unmatched positions, smallest on
    top, and a position is pushed once and popped at most once.  The
    matches, the transpositions and the float are the window scan's
    (``jaro_reference`` in ``tests/oracles.py``).
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    unmatched: dict[str, list[int]] = {}
    for j in range(len(b) - 1, -1, -1):
        stack = unmatched.get(b[j])
        if stack is None:
            unmatched[b[j]] = [j]
        else:
            stack.append(j)
    b_flags = bytearray(len(b))
    a_matched: list[str] = []
    for i, ca in enumerate(a):
        stack = unmatched.get(ca)
        if not stack:
            continue
        lo = i - window
        while stack and stack[-1] < lo:
            stack.pop()
        if stack and stack[-1] <= i + window:
            b_flags[stack.pop()] = 1
            a_matched.append(ca)
    if not a_matched:
        return 0.0
    # Matched characters pair up in order on both sides.
    transpositions = sum(x != y for x, y in zip(a_matched, compress(b, b_flags))) // 2
    m = float(len(a_matched))
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(a: str, b: str) -> float:
    """Jaro-Winkler: Jaro boosted by 0.1 per shared prefix char, up to 4."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _as_set(items: Iterable[str] | str) -> set[str]:
    if isinstance(items, str):
        return set(word_tokenize(items.lower()))
    return set(items)


def jaccard_similarity(a: Iterable[str] | str, b: Iterable[str] | str) -> float:
    """Jaccard over token sets (strings are word-tokenised, lowercased)."""
    sa, sb = _as_set(a), _as_set(b)
    if not sa and not sb:
        return 1.0
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def overlap_coefficient(a: Iterable[str] | str, b: Iterable[str] | str) -> float:
    """Szymkiewicz–Simpson overlap: intersection over the smaller set."""
    sa, sb = _as_set(a), _as_set(b)
    if not sa or not sb:
        return 1.0 if sa == sb else 0.0
    return len(sa & sb) / min(len(sa), len(sb))


class TfIdfModel:
    """A TF-IDF weighting model fit on a corpus of strings.

    Used by the blocking stage of entity resolution: rare tokens (model
    numbers, distinctive words) should weigh more than ubiquitous ones.
    """

    def __init__(self, corpus: Sequence[str]):
        self._doc_count = len(corpus)
        df: Counter[str] = Counter()
        for doc in corpus:
            df.update(set(word_tokenize(doc.lower())))
        # Sorted insertion pins the vocabulary order: document-frequency ties
        # (and therefore idf ties) would otherwise surface in corpus/hash
        # iteration order, which differs across platforms and processes.
        self._idf = {
            token: math.log((1 + self._doc_count) / (1 + df[token])) + 1.0
            for token in sorted(df)
        }
        self._default_idf = math.log(1 + self._doc_count) + 1.0
        self._vector_cache: dict[str, dict[str, float]] = {}

    def vocabulary(self) -> tuple[str, ...]:
        """Fitted tokens in their pinned (sorted) order."""
        return tuple(self._idf)

    def idf(self, token: str) -> float:
        """Inverse document frequency of ``token`` (unseen tokens weigh most)."""
        return self._idf.get(token, self._default_idf)

    def _vector(self, text: str) -> dict[str, float]:
        """Memoized sparse vector (tokenize + weigh each text only once)."""
        cached = self._vector_cache.get(text)
        if cached is None:
            counts = Counter(word_tokenize(text.lower()))
            cached = {token: count * self.idf(token) for token, count in counts.items()}
            self._vector_cache[text] = cached
        return cached

    def vector(self, text: str) -> dict[str, float]:
        """Sparse TF-IDF vector of ``text`` (a fresh copy; safe to mutate)."""
        return dict(self._vector(text))

    def similarity(self, a: str, b: str) -> float:
        """TF-IDF-weighted cosine between two strings."""
        va, vb = self._vector(a), self._vector(b)
        if not va and not vb:
            return 1.0
        if not va or not vb:
            return 0.0
        dot = sum(va[t] * vb[t] for t in va.keys() & vb.keys())
        na = math.sqrt(sum(v * v for v in va.values()))
        nb = math.sqrt(sum(v * v for v in vb.values()))
        return min(1.0, dot / (na * nb))


def monge_elkan_similarity(a: str, b: str) -> float:
    """Monge-Elkan: mean of best Jaro-Winkler match per token of ``a``.

    Note this measure is asymmetric by definition; the symmetric average of
    both directions is returned to keep the metric well behaved for features.
    """

    def directed(x: str, y: str) -> float:
        tx = word_tokenize(x.lower())
        ty = word_tokenize(y.lower())
        if not tx:
            return 1.0 if not ty else 0.0
        if not ty:
            return 0.0
        return sum(max(jaro_winkler_similarity(t, u) for u in ty) for t in tx) / len(tx)

    return (directed(a, b) + directed(b, a)) / 2.0


def numeric_similarity(a: float | None, b: float | None) -> float:
    """Relative closeness of two numbers in ``[0, 1]`` (``None`` -> 0 unless both)."""
    if a is None and b is None:
        return 1.0
    if a is None or b is None:
        return 0.0
    if a == b:
        return 1.0
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / denom)


def qgram_similarity(a: str, b: str) -> float:
    """Jaccard over padded character 3-grams (robust to small typos)."""
    ga, gb = set(char_ngrams(a.lower(), 3)), set(char_ngrams(b.lower(), 3))
    if not ga and not gb:
        return 1.0
    union = ga | gb
    if not union:
        return 1.0
    return len(ga & gb) / len(union)


__all__.append("qgram_similarity")
__all__.append("qgram_similarity_many")


# ---------------------------------------------------------------------------
# Vectorized batch variants
# ---------------------------------------------------------------------------
#
# Each ``*_many`` function evaluates one metric over aligned pair batches
# ``(a[i], b[i])`` and returns a float64 (or int64) array.  They exist for
# throughput only — semantics are defined by the scalar functions above.

_INF = np.int64(1) << 40


def _normalize_band(
    max_distance: "int | Sequence[int] | np.ndarray | None", n: int
) -> np.ndarray | None:
    if max_distance is None:
        return None
    band = np.broadcast_to(np.asarray(max_distance, dtype=np.int64), (n,)).copy()
    if (band < 0).any():
        raise ValueError("max_distance must be non-negative")
    return band


def _levenshtein_codes(
    codes_a: np.ndarray,
    len_a: np.ndarray,
    codes_b: np.ndarray,
    len_b: np.ndarray,
    band: np.ndarray | None,
) -> np.ndarray:
    """Vectorized edit-distance DP across a pair batch.

    One Python iteration per character row of the left side; the column
    recurrence (which is sequential in j) is closed in one vectorized pass
    with the running-minimum identity
    ``cur[j] = j + min_{k<=j}(t[k] - k)`` where ``t`` is the column-wise
    minimum of the deletion/substitution candidates.  With ``band`` the
    cells outside each pair's diagonal band stay at infinity and a pair
    whose whole row exceeds its budget is frozen (its final clamp to
    ``band + 1`` is already decided) — the batched analogue of the scalar
    banded early exit.
    """
    n, width_a = codes_a.shape
    width_b = codes_b.shape[1]
    # int32 state halves memory traffic; DP values are bounded by the
    # string widths except for the _INF32 band sentinel, which stays well
    # inside int32 range (and bands beyond it simply never mask a cell).
    inf32 = np.int32(1) << 30
    j = np.arange(width_b + 1, dtype=np.int32)
    prev = np.broadcast_to(j, (n, width_b + 1)).copy()
    if band is not None:
        band = np.minimum(band, np.int64(inf32)).astype(np.int32)
        prev[j[None, :] > band[:, None]] = inf32
    result = np.empty(n, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)  # original index of each live row
    alive = np.ones(n, dtype=bool)  # live = final value not yet emitted
    for i in range(1, width_a + 1):
        exhausted = alive & (len_a < i)
        if exhausted.any():
            result[rows[exhausted]] = prev[exhausted, len_b[exhausted]]
            alive &= ~exhausted
        if not alive.any():
            return result
        if len(alive) >= 2 * int(alive.sum()):
            # Over half the batch is settled (band exceeded or left string
            # exhausted): compact to the live rows — the batched analogue
            # of the scalar banded early exit.
            rows, codes_a, len_a, codes_b, len_b, prev = (
                rows[alive],
                codes_a[alive],
                len_a[alive],
                codes_b[alive],
                len_b[alive],
                prev[alive],
            )
            if band is not None:
                band = band[alive]
            alive = np.ones(len(rows), dtype=bool)
        cost = (codes_b != codes_a[:, i - 1][:, None]).astype(np.int32)
        tmp = np.minimum(prev[:, :-1] + cost, prev[:, 1:] + 1)
        head = np.full((len(rows), 1), i, dtype=np.int32)
        if band is not None:
            head[i > band, 0] = inf32
        t = np.concatenate([head, tmp], axis=1)
        cur = np.minimum.accumulate(t - j, axis=1) + j
        if band is not None:
            cur[np.abs(j[None, :] - np.int32(i)) > band[:, None]] = inf32
        # Rows no longer alive already emitted their result; their state
        # may churn harmlessly until the next compaction drops them.
        prev = cur
        if band is not None:
            frozen = alive & (cur.min(axis=1) > band)
            if frozen.any():
                # The freeze-iteration values are final, exactly as the
                # scalar band abandons with the current row's state.
                result[rows[frozen]] = cur[frozen, len_b[frozen]]
                alive &= ~frozen
            if not alive.any():
                return result
    result[rows[alive]] = prev[alive, len_b[alive]]
    return result


def levenshtein_distance_many(
    a: Sequence[str],
    b: Sequence[str],
    max_distance: "int | Sequence[int] | np.ndarray | None" = None,
) -> np.ndarray:
    """Batched :func:`levenshtein_distance` (``max_distance`` may be per-pair).

    Returns exact distances, clamped to ``max_distance + 1`` per pair when a
    band is given — identical to the scalar banded sentinel contract.
    """
    if len(a) != len(b):
        raise ValueError("batch sides must have equal length")
    band = _normalize_band(max_distance, len(a))
    if not len(a):
        return np.empty(0, dtype=np.int64)
    codes_a, len_a = pack_codepoints(a, fill=-1)
    codes_b, len_b = pack_codepoints(b, fill=-2)
    distance = _levenshtein_codes(codes_a, len_a, codes_b, len_b, band)
    if band is not None:
        distance = np.minimum(distance, band + 1)
    return distance


def levenshtein_similarity_many(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Batched :func:`levenshtein_similarity`."""
    distance = levenshtein_distance_many(a, b)
    len_a = np.fromiter((len(t) for t in a), dtype=np.int64, count=len(a))
    len_b = np.fromiter((len(t) for t in b), dtype=np.int64, count=len(b))
    longest = np.maximum(len_a, len_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = 1.0 - distance / longest
    return np.where(longest == 0, 1.0, result)


def _jaro_codes(
    codes_a: np.ndarray,
    len_a: np.ndarray,
    codes_b: np.ndarray,
    len_b: np.ndarray,
) -> np.ndarray:
    """Vectorized Jaro kernel: :func:`jaro_similarity`'s matching, every row at once.

    Each real character of ``b`` becomes one sorted key ``(row, code,
    position)``, so the run of keys of one row's character is that
    character's stack of unmatched positions, smallest first, and ``top``
    points at the first one not yet popped.  Step ``i`` matches ``a[:, i]``
    of every row still that long: two binary searches find the run and its
    first position inside the window, and a hit pops it.  A row costs
    O((|a| + |b|) log) instead of the window scan's O(|a| * |b|).
    """
    n, width_a = codes_a.shape
    width_b = codes_b.shape[1]
    if width_a == 0 or width_b == 0:
        # A whole side of the batch is empty strings: no matches anywhere.
        return np.zeros(n, dtype=np.float64)
    window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)
    # Padding is negative, so every code of either side is below ``span``.
    span = int(max(codes_a.max(), codes_b.max())) + 1
    row_b, pos_b = np.nonzero(np.arange(width_b)[None, :] < len_b[:, None])
    keys = np.sort((row_b * span + codes_b[row_b, pos_b]) * width_b + pos_b)
    top = np.arange(len(keys) + 1)
    last = len(keys) - 1
    # Longest ``a`` first: the rows step ``i`` still reads are a prefix.
    order = np.argsort(-len_a, kind="stable")
    active = n - np.searchsorted(np.sort(len_a), np.arange(width_a), side="right")
    run_key = (order[:, None] * span + codes_a[order].astype(np.int64)) * width_b
    reach = window[order]
    a_flags = np.zeros((n, width_a), dtype=bool)
    b_flags = np.zeros((n, width_b), dtype=bool)
    for i in range(width_a):
        k = active[i]
        if not k:
            break
        head = run_key[:k, i]
        start = np.searchsorted(keys, head)
        near = np.maximum(top[start], np.searchsorted(keys, head + np.maximum(i - reach[:k], 0)))
        position = keys[np.minimum(near, last)] - head
        hit = (near <= last) & (position <= np.minimum(i + reach[:k], width_b - 1))
        rows = order[:k][hit]
        a_flags[rows, i] = True
        b_flags[rows, position[hit]] = True
        top[start[hit]] = near[hit] + 1
    matches = a_flags.sum(axis=1)
    row_a, pos_a = np.nonzero(a_flags)
    row_b, pos_b = np.nonzero(b_flags)
    # nonzero() is row-major: both extractions list each pair's matched
    # characters in ascending position — exactly the scalar pairing order.
    mismatch = codes_a[row_a, pos_a] != codes_b[row_b, pos_b]
    transpositions = np.bincount(row_a[mismatch], minlength=n) // 2
    m = matches.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (m / len_a + m / len_b + (m - transpositions) / m) / 3.0
    return np.where(matches == 0, 0.0, jaro)


def jaro_winkler_similarity_many(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Batched :func:`jaro_winkler_similarity`."""
    if len(a) != len(b):
        raise ValueError("batch sides must have equal length")
    if not len(a):
        return np.empty(0, dtype=np.float64)
    codes_a, len_a = pack_codepoints(a, fill=-1)
    codes_b, len_b = pack_codepoints(b, fill=-2)
    jaro = _jaro_codes(codes_a, len_a, codes_b, len_b)
    equal = np.fromiter((x == y for x, y in zip(a, b)), dtype=bool, count=len(a))
    jaro = np.where(equal, 1.0, jaro)
    depth = min(4, codes_a.shape[1], codes_b.shape[1])
    if depth:
        cols = np.arange(depth)
        leading = (
            (codes_a[:, :depth] == codes_b[:, :depth])
            & (cols[None, :] < len_a[:, None])
            & (cols[None, :] < len_b[:, None])
        )
        prefix = np.cumprod(leading, axis=1).sum(axis=1)
    else:
        prefix = np.zeros(len(len_a), dtype=np.int64)
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _cached_word_sets(
    items: Sequence["Iterable[str] | str"], cache: dict[str, frozenset]
) -> list[frozenset]:
    rows: list[frozenset] = []
    for item in items:
        if isinstance(item, str):
            row = cache.get(item)
            if row is None:
                row = frozenset(word_tokenize(item.lower()))
                cache[item] = row
            rows.append(row)
        else:
            rows.append(frozenset(item))
    return rows


def _set_rows_keys(
    rows: list[frozenset], vocab: Vocabulary, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row token-id keys ``row * stride + id`` plus row sizes.

    Key order within a row is arbitrary (frozenset iteration):
    ``np.intersect1d`` sorts internally and every consumer derives only
    order-free quantities (sizes, intersection counts), so no per-row sort
    is spent here.
    """
    sizes = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
    row_ids = np.repeat(np.arange(len(rows), dtype=np.int64), sizes)
    lookup = vocab._ids
    ids = np.fromiter(
        (lookup[token] for row in rows for token in row),
        dtype=np.int64,
        count=int(sizes.sum()),
    )
    return row_ids * stride + ids, sizes, row_ids


def _set_pair_stats(
    a_rows: list[frozenset], b_rows: list[frozenset]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(|A|, |B|, |A ∩ B|)`` arrays for aligned set-row batches."""
    n = len(a_rows)
    vocab = Vocabulary(token for row in a_rows + b_rows for token in row)
    stride = max(len(vocab), 1)
    keys_a, sizes_a, _ = _set_rows_keys(a_rows, vocab, stride)
    keys_b, sizes_b, _ = _set_rows_keys(b_rows, vocab, stride)
    common = np.intersect1d(keys_a, keys_b, assume_unique=True)
    inter = np.bincount((common // stride).astype(np.int64), minlength=n)
    return sizes_a, sizes_b, inter


def word_set_stats(
    a: Sequence["Iterable[str] | str"], b: Sequence["Iterable[str] | str"]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared ``(|A|, |B|, |A ∩ B|)`` arrays for the word-set metrics.

    Jaccard, overlap, and Dice all reduce to these three arrays; compute
    them once per batch and pass ``stats=`` to each metric to avoid
    tokenizing and intersecting the same rows three times.
    """
    if len(a) != len(b):
        raise ValueError("batch sides must have equal length")
    if not len(a):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    cache: dict[str, frozenset] = {}
    return _set_pair_stats(_cached_word_sets(a, cache), _cached_word_sets(b, cache))


def jaccard_similarity_many(
    a: Sequence["Iterable[str] | str"],
    b: Sequence["Iterable[str] | str"],
    stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Batched :func:`jaccard_similarity` (bit-exact)."""
    sa, sb, inter = word_set_stats(a, b) if stats is None else stats
    union = sa + sb - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        result = inter / union
    return np.where(union == 0, 1.0, result)


def overlap_coefficient_many(
    a: Sequence["Iterable[str] | str"],
    b: Sequence["Iterable[str] | str"],
    stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Batched :func:`overlap_coefficient` (bit-exact)."""
    sa, sb, inter = word_set_stats(a, b) if stats is None else stats
    smaller = np.minimum(sa, sb)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = inter / smaller
    result = np.where(smaller == 0, np.where(sa == sb, 1.0, 0.0), result)
    return result


def qgram_similarity_many(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Batched :func:`qgram_similarity` (bit-exact)."""
    if len(a) != len(b):
        raise ValueError("batch sides must have equal length")
    if not len(a):
        return np.empty(0, dtype=np.float64)
    cache: dict[str, frozenset] = {}

    def grams(text: str) -> frozenset:
        row = cache.get(text)
        if row is None:
            row = frozenset(char_ngrams(text.lower(), 3))
            cache[text] = row
        return row

    sa, sb, inter = _set_pair_stats([grams(t) for t in a], [grams(t) for t in b])
    union = sa + sb - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        result = inter / union
    return np.where(union == 0, 1.0, result)


def monge_elkan_similarity_many(a: Sequence[str], b: Sequence[str]) -> np.ndarray:
    """Batched :func:`monge_elkan_similarity` (bit-exact).

    Token pairs are deduplicated across the whole batch before the
    Jaro-Winkler kernel runs, so repeated attribute values cost nothing
    extra; per-token maxima and the directed means are folded with
    order-preserving segment reductions to match the scalar accumulation.
    """
    if len(a) != len(b):
        raise ValueError("batch sides must have equal length")
    n = len(a)
    if not n:
        return np.empty(0, dtype=np.float64)
    cache: dict[str, list[str]] = {}

    def tokens(text: str) -> list[str]:
        row = cache.get(text)
        if row is None:
            row = word_tokenize(text.lower())
            cache[text] = row
        return row

    rows_a = [tokens(t) for t in a]
    rows_b = [tokens(t) for t in b]
    vocab = Vocabulary(tok for row in rows_a + rows_b for tok in row)
    enc_a = [vocab.encode(row) for row in rows_a]
    enc_b = [vocab.encode(row) for row in rows_b]
    forward, table = _directed_monge_elkan(enc_a, enc_b, vocab, return_table=True)
    backward = _directed_monge_elkan(enc_b, enc_a, vocab, table=table)
    return (forward + backward) / 2.0


_EMPTY_JW_TABLE = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


def _directed_monge_elkan(
    enc_x: list[np.ndarray],
    enc_y: list[np.ndarray],
    vocab: Vocabulary,
    *,
    table: tuple[np.ndarray, np.ndarray] | None = None,
    return_table: bool = False,
) -> np.ndarray | tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    n = len(enc_x)
    nx = np.fromiter((len(row) for row in enc_x), dtype=np.int64, count=n)
    ny = np.fromiter((len(row) for row in enc_y), dtype=np.int64, count=n)
    result = np.zeros(n, dtype=np.float64)
    result[(nx == 0) & (ny == 0)] = 1.0
    valid = np.nonzero((nx > 0) & (ny > 0))[0]
    if not len(valid):
        return (result, _EMPTY_JW_TABLE) if return_table else result
    flat_x = np.concatenate([enc_x[i] for i in valid])
    flat_y = np.concatenate([enc_y[i] for i in valid])
    vx, vy = nx[valid], ny[valid]
    starts_x = np.concatenate([[0], np.cumsum(vx)[:-1]])
    starts_y = np.concatenate([[0], np.cumsum(vy)[:-1]])
    combos = vx * vy
    total = int(combos.sum())
    combo_start = np.concatenate([[0], np.cumsum(combos)[:-1]])
    local = np.arange(total, dtype=np.int64) - np.repeat(combo_start, combos)
    ny_rep = np.repeat(vy, combos)
    x_pos = np.repeat(starts_x, combos) + local // ny_rep
    y_pos = np.repeat(starts_y, combos) + local % ny_rep
    tid = flat_x[x_pos].astype(np.int64)
    uid = flat_y[y_pos].astype(np.int64)
    stride = max(len(vocab), 1)
    keys = tid * stride + uid
    if table is None:
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        unique_scores = jaro_winkler_similarity_many(
            [vocab.tokens[k // stride] for k in unique_keys],
            [vocab.tokens[k % stride] for k in unique_keys],
        )
        scores = unique_scores[inverse]
    else:
        # Jaro-Winkler is symmetric (matches, transpositions, and the
        # common prefix are direction-free, and the m/|a| + m/|b| sum
        # commutes in IEEE arithmetic), so the reverse direction reuses
        # the forward direction's table through transposed keys — every
        # (y, x) combo here appeared as (x, y) in the forward pass.
        unique_keys, unique_scores = table
        transposed = (keys % stride) * stride + keys // stride
        scores = unique_scores[np.searchsorted(unique_keys, transposed)]
    # Per (pair, x-token) maxima: combos are emitted grouped by global x
    # position, so segment boundaries are exactly the x_pos transitions.
    seg_starts = np.nonzero(np.diff(x_pos, prepend=-1))[0]
    maxima = np.maximum.reduceat(scores, seg_starts)
    pair_of_combo = np.repeat(np.arange(len(valid), dtype=np.int64), combos)
    sums = np.bincount(pair_of_combo[seg_starts], weights=maxima, minlength=len(valid))
    result[valid] = sums / vx
    return (result, (unique_keys, unique_scores)) if return_table else result


def numeric_similarity_many(
    a: Sequence[float | None], b: Sequence[float | None]
) -> np.ndarray:
    """Batched :func:`numeric_similarity` (bit-exact)."""
    if len(a) != len(b):
        raise ValueError("batch sides must have equal length")
    if not len(a):
        return np.empty(0, dtype=np.float64)
    va = np.array([np.nan if v is None else float(v) for v in a], dtype=np.float64)
    vb = np.array([np.nan if v is None else float(v) for v in b], dtype=np.float64)
    missing_a = np.isnan(va)
    missing_b = np.isnan(vb)
    denom = np.maximum(np.abs(va), np.abs(vb))
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.maximum(0.0, 1.0 - np.abs(va - vb) / denom)
    result = np.where(va == vb, 1.0, result)
    result = np.where(denom == 0.0, 1.0, result)
    result = np.where(missing_a | missing_b, 0.0, result)
    return np.where(missing_a & missing_b, 1.0, result)
