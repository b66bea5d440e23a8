"""Shared utilities: deterministic hashing and seeded randomness.

Everything in this reproduction must be deterministic given a seed.  Python's
built-in :func:`hash` is salted per process, so code that needs a stable
string hash (for instance the simulated LLM deciding whether it "knows" a
fact) must use :func:`stable_hash` instead.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

__all__ = [
    "stable_hash",
    "stable_prefix",
    "indexed_hash",
    "stable_unit",
    "stable_choice",
    "seeded_rng",
    "below",
]


def stable_hash(*parts: object) -> int:
    """Return a deterministic non-negative 64-bit integer hash of ``parts``.

    The hash is stable across processes and Python versions (unlike the
    built-in :func:`hash`).  Parts are joined with an unlikely separator so
    that ``stable_hash("ab", "c") != stable_hash("a", "bc")``.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def stable_prefix(*parts: object) -> bytes:
    """The bytes :func:`stable_hash` hashes for ``parts`` when more follow.

    An index-addressable source joins its fixed identity once and hashes
    only each record's index after it (see :func:`indexed_hash`).
    """
    return "".join(f"{part!r}\x1f" for part in parts).encode("utf-8")


def indexed_hash(prefix: bytes, index: int) -> int:
    """``stable_hash(*parts, index)`` for ``prefix == stable_prefix(*parts)``."""
    digest = hashlib.blake2b(prefix + b"%d" % index, digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def stable_unit(*parts: object) -> float:
    """Return a deterministic pseudo-uniform float in ``[0, 1)`` for ``parts``.

    Used to make per-item stochastic decisions (e.g. "does the simulated LLM
    err on this record?") that are reproducible and independent of call order.
    """
    return stable_hash(*parts) / float(1 << 64)


def stable_choice(options: Sequence[T], *parts: object) -> T:
    """Deterministically pick one of ``options`` keyed by ``parts``."""
    if not options:
        raise ValueError("stable_choice requires at least one option")
    return options[stable_hash(*parts) % len(options)]


def seeded_rng(seed: int | str) -> random.Random:
    """Return a :class:`random.Random` seeded deterministically.

    String seeds are hashed with :func:`stable_hash` first so that the same
    string always yields the same stream regardless of interpreter hash
    randomisation.
    """
    if isinstance(seed, str):
        seed = stable_hash(seed)
    return random.Random(seed)


def below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` (``n > 0``) by rejection over ``getrandbits``.

    The synthetic sources draw through this and ``random()`` alone, so what
    they derive depends on the Mersenne Twister's own outputs only, not on
    the ``choice`` / ``randrange`` / ``randint`` algorithms of
    :mod:`random`, which Python does not promise to keep.  It draws what
    those wrappers draw today: ``seq[below(bits, len(seq))]`` is
    ``choice(seq)``, ``a + below(bits, b - a)`` is ``randrange(a, b)``.
    """
    if n <= 0:
        raise ValueError(f"below() needs n > 0, got {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
