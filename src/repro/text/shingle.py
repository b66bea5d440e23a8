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
several times (the candidate scan, then both sides of every candidate pair
in the verify rung).  :func:`document_sketches` is the one place the
curation kernels compute them, a whole corpus per call: each distinct text
is canonicalised once, and each distinct shingle string of the corpus is
hashed once and read by every document and both forms that hold it.  The
candidate scan hands the sketches it made to the verify rung, so nothing
is memoised across calls.
"""

from __future__ import annotations

import hashlib
import re
from array import array
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
    "DocumentSketch",
    "document_sketches",
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
    return list(map(" ".join, zip(*[tokens[i:] for i in range(n)])))


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


class DocumentSketch(NamedTuple):
    """Everything the dedup kernels derive from one document's text.

    The id fields hold the values of :func:`shingle_ids` in a read-only
    buffer of 4-byte unsigned ints (not a boxed ``int`` each): one sketch
    serves every copy of its text in a scan, so nobody may write to one.
    """

    digest: str  #: exact-duplicate key: blake2b over ``simple_canonical(text)``
    simple_ids: memoryview  #: ``shingle_ids(simple_canonical(text), n)``
    knowledge_ids: memoryview  #: ``shingle_ids(knowledge_canonical(text), n)``


def _table_ids(text: str, n: int, table: dict[str, int]) -> memoryview:
    """``shingle_ids(text, n)``, hashing only the shingles ``table`` lacks."""
    shingles = set(word_shingles(text, n))
    for shingle in shingles.difference(table):
        table[shingle] = shingle_id(shingle)
    return memoryview(array("I", sorted(set(map(table.__getitem__, shingles))))).toreadonly()


def document_sketches(texts: Iterable[str], n: int = 3) -> list[DocumentSketch]:
    """The :class:`DocumentSketch` of each of ``texts`` for shingle width ``n``, in order."""
    table: dict[str, int] = {}
    by_text: dict[str, DocumentSketch] = {}
    sketches = []
    for text in texts:
        sketch = by_text.get(text)
        if sketch is None:
            simple = simple_canonical(text)
            sketch = by_text[text] = DocumentSketch(
                _canonical_digest(simple),
                _table_ids(simple, n, table),
                _table_ids(knowledge_canonical(text), n, table),
            )
        sketches.append(sketch)
    return sketches
