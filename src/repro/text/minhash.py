"""MinHash / LSH conventions: the permutation family and the band-key layout.

MinHash estimates Jaccard resemblance between shingle sets: for ``k``
random permutations of the shingle space, the probability that two sets
share a minimum is exactly their Jaccard similarity, so the fraction of
agreeing signature positions is an unbiased estimate with standard error
``sqrt(J * (1 - J) / k)``.

Permutations are the classic universal-hash family ``h(x) = (a*x + b) mod p``
with ``p = 2**31 - 1`` (Mersenne prime).  Because shingle ids and ``a`` are
both below ``2**31``, the product fits in 62 bits — numpy ``uint64``
arithmetic holds it exactly, and the kernels in :mod:`repro.storage.columnar`
reduce it by Mersenne folding to the exact residue.  Their scalar references
live with the tests (``tests/oracles.py``).

LSH banding splits a ``k``-position signature into ``bands`` bands of
``rows`` rows; documents sharing any full band become candidate pairs.  The
no-false-negative guarantee the test suite locks is the pigeonhole form:
**a pair whose signatures disagree in fewer than ``bands`` positions always
shares at least one complete band** (fewer mismatches than bands means some
band holds none of them).  Band keys are blake2b digests over the band's
values: the 4-byte little-endian band index, then each value as
little-endian ``uint32``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import stable_hash
from repro.text.shingle import SHINGLE_SPACE

__all__ = [
    "MINHASH_PRIME",
    "MinHashParams",
    "minhash_params",
]

#: Modulus of the permutation family; equals :data:`~repro.text.shingle.SHINGLE_SPACE`.
MINHASH_PRIME = (1 << 31) - 1

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


def minhash_params(num_perm: int = 128) -> MinHashParams:
    """Derive a deterministic permutation family from the seed ``minhash-v1``.

    ``a_i`` is drawn from ``[1, p)`` (zero would collapse the permutation)
    and ``b_i`` from ``[0, p)``, both via :func:`repro._util.stable_hash`
    so the family is identical across processes and worker counts.
    """
    if num_perm <= 0:
        raise ValueError("num_perm must be positive")
    seed = "minhash-v1"
    a = tuple(
        1 + stable_hash(seed, "a", i) % (MINHASH_PRIME - 1) for i in range(num_perm)
    )
    b = tuple(stable_hash(seed, "b", i) % MINHASH_PRIME for i in range(num_perm))
    return MinHashParams(a=a, b=b, seed=seed)
