"""Document shingling kernels for corpus-level curation operators.

Fuzzy deduplication (NeMo-Curator style) works over *shingle sets*: a
document is canonicalised, split into word n-grams, and each n-gram is
hashed into a fixed integer space.  Jaccard similarity between shingle
sets is then the resemblance measure MinHash estimates.

Two canonicalisers are deliberately provided:

- :func:`simple_canonical` — lowercase, strip punctuation, collapse
  whitespace.  This is what a *non-LLM* baseline can do: no world
  knowledge, so abbreviation/unit/accent rewrites between two copies of a
  document survive canonicalisation and break their shared shingles.
- :func:`knowledge_canonical` — the full :func:`repro.text.normalize.normalize_text`
  pipeline (abbreviation expansion, unit canonicalisation, accent
  stripping).  This is the normalisation an LLM applies implicitly; the
  simulated curation skills use it, which is where their edge over the
  baselines comes from.

Both are idempotent (re-application is a no-op), which the property suite
locks: ``canonical(canonical(x)) == canonical(x)`` and the shingle set of a
canonical text is stable under re-canonicalisation.

Shingle identifiers live in the 31-bit space ``[0, 2**31 - 1)`` so the
MinHash permutation ``(a * x + b) mod (2**31 - 1)`` stays exact in both
plain Python integers and numpy ``uint64`` arithmetic (``a, x < 2**31``
implies ``a * x + b < 2**62``) — the columnar kernels in
:mod:`repro.storage.columnar` are bitwise-identical to these oracles.

A curation run needs the same document's canonical forms and shingle ids
several times (the in-pipeline candidate scan, the runner's id pass, both
sides of every candidate pair in the verify rung).  :func:`document_sketch`
is the one place the curation kernels compute them: a pure function of
``(text, shingle_n)`` memoised in a small content-keyed LRU, so each
document is canonicalised and shingled once per run — and, within one
sketch, each distinct shingle string of the two forms is hashed once.
"""

from __future__ import annotations

import hashlib
import re
from array import array
from functools import lru_cache
from typing import Iterable, NamedTuple

from repro.text.normalize import normalize_text, normalize_whitespace

__all__ = [
    "SHINGLE_SPACE",
    "simple_canonical",
    "knowledge_canonical",
    "word_shingles",
    "shingle_id",
    "shingle_ids",
    "exact_jaccard",
    "document_digest",
    "DocumentSketch",
    "document_sketch",
]

#: Shingle identifiers are drawn from ``[0, SHINGLE_SPACE)`` — one below the
#: Mersenne prime ``2**31 - 1`` used by the MinHash permutations, so every
#: id is a valid residue and products with ``a < 2**31`` fit in 62 bits.
SHINGLE_SPACE = (1 << 31) - 1

_SIMPLE_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def simple_canonical(text: str) -> str:
    """Knowledge-free canonical form: lowercase, no punctuation, one-space.

    Idempotent by construction — every step is a projection.  This is the
    canonicaliser the non-LLM baselines use: it cannot undo abbreviation,
    unit, or accent rewrites, so disguised duplicates keep distinct
    shingles under it.
    """
    text = _SIMPLE_PUNCT_RE.sub(" ", text.lower())
    return normalize_whitespace(text)


def knowledge_canonical(text: str) -> str:
    """World-knowledge canonical form (the full normaliser, to fixpoint)."""
    return normalize_text(text)


def word_shingles(text: str, n: int = 3) -> list[str]:
    """Contiguous word ``n``-grams of ``text``, space-joined.

    The text is *not* canonicalised here — callers pick a canonicaliser
    first so the baseline and the knowledge path can differ only in that
    choice.  Texts shorter than ``n`` words yield a single shingle of the
    whole text (so no non-empty document has an empty shingle set).
    """
    if n <= 0:
        raise ValueError("shingle width must be positive")
    tokens = text.split()
    if not tokens:
        return []
    if len(tokens) < n:
        return [" ".join(tokens)]
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


#: blake2b state after ``stable_hash("shingle", ...)``'s constant prefix;
#: each shingle copies it and feeds only its own ``repr``.
_SHINGLE_PREFIX = hashlib.blake2b(b"'shingle'\x1f", digest_size=8)


def shingle_id(shingle: str) -> int:
    """Stable 31-bit identifier of one shingle string.

    Equal to ``stable_hash("shingle", shingle) % SHINGLE_SPACE`` (the
    property suite locks it) without the generic variadic join.
    """
    state = _SHINGLE_PREFIX.copy()
    state.update(repr(shingle).encode("utf-8"))
    return int.from_bytes(state.digest(), "big") % SHINGLE_SPACE


def shingle_ids(text: str, n: int = 3) -> tuple[int, ...]:
    """Sorted, de-duplicated shingle identifiers of ``text``.

    The sorted-tuple form is the canonical set representation shared by the
    scalar and columnar MinHash kernels.
    """
    return tuple(sorted({shingle_id(s) for s in word_shingles(text, n)}))


def exact_jaccard(ids_a: Iterable[int], ids_b: Iterable[int]) -> float:
    """Exact Jaccard resemblance of two shingle-id sets."""
    a, b = set(ids_a), set(ids_b)
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _canonical_digest(canonical: str) -> str:
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def document_digest(text: str) -> str:
    """Exact-duplicate key: blake2b over the simple-canonical text."""
    return _canonical_digest(simple_canonical(text))


class DocumentSketch(NamedTuple):
    """Everything the dedup kernels derive from one document's text.

    The id fields hold the values of :func:`shingle_ids` in a read-only
    buffer of 4-byte unsigned ints (not a boxed ``int`` each): sketches are
    shared between callers through the LRU, so nobody may write to one.
    """

    digest: str  #: :func:`document_digest` of the text
    simple_ids: memoryview  #: ``shingle_ids(simple_canonical(text), n)``
    knowledge_ids: memoryview  #: ``shingle_ids(knowledge_canonical(text), n)``


def _frozen_ids(ids: Iterable[int]) -> memoryview:
    return memoryview(array("I", sorted(ids))).toreadonly()


#: Documents the sketch LRU holds (a few KB each).  One scan never relies on
#: it — every scan sketches its documents once and passes the sketches along
#: — so capacity only bounds how large a corpus the *later* passes of a run
#: (id pass, verify rung) find already sketched; past it they recompute.
_SKETCH_CAPACITY = 1024


@lru_cache(maxsize=_SKETCH_CAPACITY)
def document_sketch(text: str, n: int = 3) -> DocumentSketch:
    """The :class:`DocumentSketch` of ``text`` for shingle width ``n``."""
    simple = simple_canonical(text)
    simple_shingles = word_shingles(simple, n)
    knowledge_shingles = word_shingles(knowledge_canonical(text), n)
    # The two forms share most of their shingle strings (and a form repeats
    # its own): each distinct string is hashed once and both tiers read it.
    ids = {s: shingle_id(s) for s in {*simple_shingles, *knowledge_shingles}}
    return DocumentSketch(
        _canonical_digest(simple),
        _frozen_ids({ids[s] for s in simple_shingles}),
        _frozen_ids({ids[s] for s in knowledge_shingles}),
    )
