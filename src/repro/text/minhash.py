"""Scalar MinHash / LSH kernels (the oracles the columnar kernels must match).

MinHash estimates Jaccard resemblance between shingle sets: for ``k``
random permutations of the shingle space, the probability that two sets
share a minimum is exactly their Jaccard similarity, so the fraction of
agreeing signature positions is an unbiased estimate with standard error
``sqrt(J * (1 - J) / k)`` (the bound the property suite checks against).

Permutations are the classic universal-hash family ``h(x) = (a*x + b) mod p``
with ``p = 2**31 - 1`` (Mersenne prime).  Because shingle ids and ``a`` are
both below ``2**31``, the product fits in 62 bits — numpy ``uint64``
arithmetic holds it exactly and the columnar kernel in
:mod:`repro.storage.columnar` reduces it (by Mersenne folding) to the
identical residue, *bitwise* equal to this scalar one rather than merely
approximately so.

LSH banding splits a ``k``-position signature into ``bands`` bands of
``rows`` rows; documents sharing any full band become candidate pairs.  The
no-false-negative guarantee the test suite locks is the pigeonhole form:
**a pair whose signatures disagree in fewer than ``bands`` positions always
shares at least one complete band** (fewer mismatches than bands means some
band holds none of them).  Band keys are blake2b digests over the band's
values packed little-endian ``uint32`` — a byte layout both the scalar and
columnar paths can produce identically.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro._util import stable_hash
from repro.text.shingle import SHINGLE_SPACE

__all__ = [
    "MINHASH_PRIME",
    "EMPTY_SLOT",
    "MinHashParams",
    "minhash_params",
    "minhash_signature",
    "estimate_jaccard",
    "band_key",
    "band_keys",
    "minhash_error_bound",
]

#: Modulus of the permutation family; equals :data:`~repro.text.shingle.SHINGLE_SPACE`.
MINHASH_PRIME = (1 << 31) - 1

#: Signature slot value for an *empty* shingle set.  Permutation outputs lie
#: in ``[0, MINHASH_PRIME)``, so the prime itself is an impossible minimum —
#: two empty documents agree everywhere (J = 1) and an empty vs non-empty
#: document agrees nowhere (J = 0), matching exact Jaccard's conventions.
EMPTY_SLOT = MINHASH_PRIME

assert SHINGLE_SPACE == MINHASH_PRIME


@dataclass(frozen=True)
class MinHashParams:
    """One seeded permutation family: ``h_i(x) = (a_i * x + b_i) mod p``."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    seed: str

    @property
    def num_perm(self) -> int:
        return len(self.a)


def minhash_params(num_perm: int = 128, seed: str = "minhash-v1") -> MinHashParams:
    """Derive a deterministic permutation family from ``seed``.

    ``a_i`` is drawn from ``[1, p)`` (zero would collapse the permutation)
    and ``b_i`` from ``[0, p)``, both via :func:`repro._util.stable_hash`
    so the family is identical across processes and worker counts.
    """
    if num_perm <= 0:
        raise ValueError("num_perm must be positive")
    a = tuple(
        1 + stable_hash(seed, "a", i) % (MINHASH_PRIME - 1) for i in range(num_perm)
    )
    b = tuple(stable_hash(seed, "b", i) % MINHASH_PRIME for i in range(num_perm))
    return MinHashParams(a=a, b=b, seed=seed)


def minhash_signature(ids: tuple[int, ...], params: MinHashParams) -> tuple[int, ...]:
    """MinHash signature of one shingle-id set (scalar oracle).

    Empty sets get the all-:data:`EMPTY_SLOT` signature.
    """
    if not ids:
        return (EMPTY_SLOT,) * params.num_perm
    return tuple(
        min((a * x + b) % MINHASH_PRIME for x in ids)
        for a, b in zip(params.a, params.b)
    )


def estimate_jaccard(sig_a: tuple[int, ...], sig_b: tuple[int, ...]) -> float:
    """Fraction of agreeing signature positions — the MinHash estimate."""
    if len(sig_a) != len(sig_b):
        raise ValueError("signatures must have equal length")
    if not sig_a:
        return 0.0
    agree = sum(1 for x, y in zip(sig_a, sig_b) if x == y)
    return agree / len(sig_a)


def minhash_error_bound(jaccard: float, num_perm: int, sigmas: float = 5.0) -> float:
    """Analytic deviation bound for the MinHash estimate at ``num_perm``.

    The estimate is a mean of ``num_perm`` Bernoulli(J) indicators, so its
    standard error is ``sqrt(J(1-J)/k)``; the property suite allows
    ``sigmas`` standard errors plus one quantisation step ``1/k``.
    """
    variance = max(jaccard * (1.0 - jaccard), 1e-12)
    return sigmas * (variance / num_perm) ** 0.5 + 1.0 / num_perm


def band_key(signature: tuple[int, ...], band_index: int, rows: int) -> str:
    """Bucket key of one LSH band: blake2b over the packed band values.

    The byte layout — 4-byte little-endian band index, then each band value
    as little-endian ``uint32`` — is chosen so a numpy ``.tobytes()`` over a
    ``<u4`` signature slice produces the identical digest input.
    """
    start = band_index * rows
    values = signature[start : start + rows]
    if len(values) != rows:
        raise ValueError(
            f"band {band_index} needs {rows} values, signature has {len(signature)}"
        )
    payload = struct.pack("<I", band_index) + struct.pack(f"<{rows}I", *values)
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def band_keys(signature: tuple[int, ...], bands: int, rows: int) -> list[str]:
    """All ``bands`` bucket keys of a signature (requires ``bands*rows == k``)."""
    if bands * rows != len(signature):
        raise ValueError(
            f"bands*rows must equal signature length ({bands}*{rows} != {len(signature)})"
        )
    return [band_key(signature, i, rows) for i in range(bands)]
