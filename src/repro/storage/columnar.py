"""Columnar kernels for the local (non-provider) hot paths.

Per-record Python dicts and per-pair string loops dominate the system's
non-provider time (see ``RunProfile``'s provider/local split).  This module
holds the array substrate those hot paths vectorize over:

- :class:`Vocabulary` — a deterministic (sorted) token -> id mapping, so
  set metrics and joins run over ``int32`` arrays instead of Python string
  sets;
- :func:`pack_codepoints` — padded codepoint matrices for the vectorized
  edit metrics in :mod:`repro.text.similarity`;
- the batched MinHash / LSH kernels (:func:`minhash_signatures_many`,
  :func:`band_keys_many`) behind the dedup candidate scan.

Every vectorized call site is the only production path; the scalar
implementation it replaced stays beside it as the reference the
equivalence suites compare against by name.

Determinism contract: token ids are assigned in sorted token order and all
array layouts are pure functions of the input rows, so two processes
always agree bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Vocabulary",
    "pack_codepoints",
    "minhash_signatures_many",
    "band_keys_many",
]


# ---------------------------------------------------------------------------
# Packing kernel
# ---------------------------------------------------------------------------


def pack_codepoints(texts: Sequence[str], fill: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Pack strings into a padded ``(n, max_len)`` int32 codepoint matrix.

    Returns ``(codes, lengths)``.  Cells past a row's length hold ``fill``;
    pick distinct fills for the two sides of a pair batch so padding never
    compares equal.  An all-empty batch yields a ``(n, 0)`` matrix.
    """
    n = len(texts)
    lengths = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    width = int(lengths.max()) if n else 0
    codes = np.full((n, width), fill, dtype=np.int32)
    if width:
        flat = np.frombuffer(
            "".join(texts).encode("utf-32-le"), dtype=np.uint32
        ).astype(np.int32)
        mask = np.arange(width)[None, :] < lengths[:, None]
        codes[mask] = flat
    return codes, lengths


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


class Vocabulary:
    """Deterministic token -> id mapping (ids follow sorted token order).

    Sorted assignment is the whole point: a vocabulary built from the same
    token multiset is identical across runs, platforms and processes, so
    every downstream array (and every float accumulated in id order) is
    reproducible.
    """

    __slots__ = ("tokens", "_ids")

    def __init__(self, tokens: Iterable[str]):
        self.tokens: tuple[str, ...] = tuple(sorted(set(tokens)))
        self._ids: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        """Id of ``token`` (``-1`` when out of vocabulary)."""
        return self._ids.get(token, -1)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode a token sequence to an int32 id array (OOV -> ``-1``)."""
        return np.fromiter(
            (self._ids.get(t, -1) for t in tokens), dtype=np.int32, count=len(tokens)
        )


# ---------------------------------------------------------------------------
# MinHash / LSH kernels (vectorized counterparts of repro.text.minhash)
# ---------------------------------------------------------------------------

# Shingle ids and the multipliers both live below 2**31, so a*x + b stays
# under 2**63: uint64 arithmetic holds it exactly, and the residue is taken
# by folding (``y mod p == (y & p) + (y >> 31) mod p`` for ``p = 2**31 - 1``)
# instead of a division.  Two folds bring any such ``y`` below ``2p``, one
# wrapping subtraction finishes it, so the kernels below are *bitwise* equal
# to the scalar oracles, not approximately so.
_MINHASH_PRIME = np.uint64((1 << 31) - 1)
_FOLD_SHIFT = np.uint64(31)


def minhash_signatures_many(
    id_rows: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]
) -> np.ndarray:
    """MinHash signatures for a batch of shingle-id sets.

    ``a``/``b`` come from :func:`repro.text.minhash.minhash_params`; ids
    must lie below ``2**32`` (shingle ids lie below the prime).  Returns an
    ``(n_docs, num_perm)`` ``uint64`` array; empty rows get the all-
    ``EMPTY_SLOT`` (= prime) sentinel, matching the scalar oracle.
    """
    num_perm = len(a)
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    out = np.full((len(id_rows), num_perm), _MINHASH_PRIME, dtype=np.uint64)
    # One (n_ids, num_perm) residue table and its scratch, sized for the
    # longest row and reused as views by every row.
    width = max((len(ids) for ids in id_rows), default=0)
    table = np.empty((width, num_perm), dtype=np.uint64)
    scratch = np.empty_like(table)
    for row_index, ids in enumerate(id_rows):
        if not len(ids):
            continue
        hashed, high = table[: len(ids)], scratch[: len(ids)]
        np.multiply(np.asarray(ids, dtype=np.uint64)[:, None], a_arr, out=hashed)
        hashed += b_arr
        for _ in range(2):
            np.right_shift(hashed, _FOLD_SHIFT, out=high)
            hashed &= _MINHASH_PRIME
            hashed += high
        # ``hashed - p`` wraps above ``hashed`` unless ``hashed >= p``, so the
        # minimum is the residue.  It must be taken before the min over ids:
        # an unreduced ``p`` would lose to every nonzero residue.
        np.subtract(hashed, _MINHASH_PRIME, out=high)
        np.minimum(hashed, high, out=hashed)
        hashed.min(axis=0, out=out[row_index])
    return out


def band_keys_many(signatures: np.ndarray, bands: int, rows: int) -> list[list[str]]:
    """LSH band keys per signature row, bitwise-equal to the scalar path.

    The digest input is the 4-byte little-endian band index followed by the
    band's values packed ``<u4`` — exactly the :func:`repro.text.minhash.band_key`
    layout — so candidate buckets agree with the scalar reference.
    """
    import hashlib
    import struct

    if signatures.ndim != 2 or signatures.shape[1] != bands * rows:
        raise ValueError(
            f"signatures must be (n, {bands * rows}), got {signatures.shape}"
        )
    packed = signatures.astype("<u4")
    prefixes = [struct.pack("<I", i) for i in range(bands)]
    keys: list[list[str]] = []
    for row in packed:
        keys.append(
            [
                hashlib.blake2b(
                    prefixes[i] + row[i * rows : (i + 1) * rows].tobytes(),
                    digest_size=8,
                ).hexdigest()
                for i in range(bands)
            ]
        )
    return keys
