"""Scalar references and trace helpers that only the test suites use.

Production runs the columnar MinHash / LSH kernels
(:mod:`repro.storage.columnar`) and the one-pass :func:`document_sketch`;
the plain-Python forms below define what those kernels must equal, bit for
bit.  The span-tree helpers walk a :class:`~repro.obs.trace.Span` tree for
the golden and property assertions, and flatten it to the parent-linked
records the golden traces are stored as.  The per-token quality statistics
define what the whole-text passes of :func:`repro.text.quality.quality_stats`
must equal, and the window-scan Jaro what :func:`jaro_similarity` must.
The last two restate a cascade's escalation band and a retry
policy's backoff sequence for the tests that check behaviour against them.
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import Any, Iterator

from repro.obs.trace import Span, Tracer
from repro.text.minhash import MINHASH_PRIME, MinHashParams
from repro.text.quality import QualityStats
from repro.text.shingle import simple_canonical

# -- MinHash / LSH ----------------------------------------------------------

#: Signature slot value for an *empty* shingle set.  Permutation outputs lie
#: in ``[0, MINHASH_PRIME)``, so the prime itself is an impossible minimum —
#: two empty documents agree everywhere (J = 1) and an empty vs non-empty
#: document agrees nowhere (J = 0), matching exact Jaccard's conventions.
EMPTY_SLOT = MINHASH_PRIME


def minhash_signature(ids: tuple[int, ...], params: MinHashParams) -> tuple[int, ...]:
    """MinHash signature of one shingle-id set.

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
    as little-endian ``uint32`` — is the one ``band_keys_many`` hashes.
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


def document_digest(text: str) -> str:
    """Exact-duplicate key: blake2b over the simple-canonical text."""
    return hashlib.blake2b(
        simple_canonical(text).encode("utf-8"), digest_size=16
    ).hexdigest()


# -- quality statistics -------------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_CONSONANT_CLUSTER_RE = re.compile(r"[bcdfghjklmnpqrstvwxz]{4,}")


def per_token_quality_stats(text: str) -> QualityStats:
    """:class:`QualityStats` counted token by token and word by word."""
    tokens = text.split()
    sentences = [s.strip() for s in _SENTENCE_SPLIT_RE.split(text.strip()) if s.strip()]
    words = [w.lower() for w in _WORD_RE.findall(text)]
    n_tokens = len(tokens)
    n_sentences = len(sentences)
    caps = sum(1 for t in tokens if len(t) > 2 and t.isupper())
    digits = sum(1 for t in tokens if any(c.isdigit() for c in t))
    clustered = sum(1 for w in words if _CONSONANT_CLUSTER_RE.search(w))
    return QualityStats(
        n_tokens=n_tokens,
        n_sentences=n_sentences,
        tokens_per_sentence=n_tokens / n_sentences if n_sentences else 0.0,
        allcaps_ratio=caps / n_tokens if n_tokens else 0.0,
        digit_token_ratio=digits / n_tokens if n_tokens else 0.0,
        distinct_sentence_ratio=(
            len(set(sentences)) / n_sentences if n_sentences else 0.0
        ),
        distinct_word_ratio=len(set(words)) / len(words) if words else 0.0,
        cluster_word_ratio=clustered / len(words) if words else 0.0,
    )


# -- Jaro ---------------------------------------------------------------------


def jaro_reference(a: str, b: str) -> float:
    """Jaro similarity by the window scan: O(|a| * window).

    For each character of ``a``, scan ``b`` within ``max(|a|, |b|) // 2 - 1``
    of its position for the leftmost unmatched equal character.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not b_flags[j] and b[j] == ca:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flagged in enumerate(a_flags):
        if not flagged:
            continue
        while not b_flags[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


# -- span trees --------------------------------------------------------------


def walk_spans(roots: "list[Span] | Span") -> Iterator[tuple[Span, Span | None]]:
    """Yield ``(span, parent)`` pairs depth-first over one or more trees."""
    stack: list[tuple[Span, Span | None]]
    if isinstance(roots, Span):
        stack = [(roots, None)]
    else:
        stack = [(root, None) for root in reversed(roots)]
    while stack:
        span, parent = stack.pop()
        yield span, parent
        for child in reversed(span.children):
            stack.append((child, span))


#: The span kinds, outermost first.  ``shard`` is the streaming executor's
#: analogue of ``chunk`` (one streamed, ledger-journalled shard, pinned to the
#: operator-entry timestamp); ``event`` marks point-in-time occurrences
#: such as a journal torn-tail truncation.
SPAN_KINDS = ("run", "phase", "module", "chunk", "shard", "llm_call", "event")


def span_tree_problems(root: Span) -> list[str]:
    """Well-formedness violations of one span tree (empty list = valid).

    Every interval is ordered (``end >= start``), every child's interval
    nests inside its parent's, and every kind is known.
    """
    problems: list[str] = []
    for span, parent in walk_spans(root):
        if span.kind not in SPAN_KINDS:
            problems.append(f"{span.name}: unknown kind {span.kind!r}")
        if span.end < span.start:
            problems.append(
                f"{span.name}: end {span.end} precedes start {span.start}"
            )
        if parent is not None and (
            span.start < parent.start or span.end > parent.end
        ):
            problems.append(
                f"{span.name}: interval [{span.start}, {span.end}] escapes "
                f"parent {parent.name} [{parent.start}, {parent.end}]"
            )
    return problems


def provenance_counts(roots: "list[Span] | Span") -> dict[str, int]:
    """Count ``llm_call`` spans per provenance attribute."""
    counts: dict[str, int] = {}
    for span, _ in walk_spans(roots):
        if span.kind == "llm_call":
            provenance = str(span.attributes.get("provenance", "unknown"))
            counts[provenance] = counts.get(provenance, 0) + 1
    return dict(sorted(counts.items()))


#: Float attribute names a span record rounds (they are deterministic, but
#: rounding keeps golden fixtures readable and platform-stable).
_ROUNDED_FIELDS = {"cost": 10, "latency_seconds": 9, "start": 9, "end": 9}


def span_record(span: Span) -> dict[str, Any]:
    """One span alone (no children) as a plain dict, attributes sorted."""
    return {
        "name": span.name,
        "kind": span.kind,
        "start": round(span.start, _ROUNDED_FIELDS["start"]),
        "end": round(span.end, _ROUNDED_FIELDS["end"]),
        "attributes": {
            key: (
                round(value, _ROUNDED_FIELDS[key])
                if key in _ROUNDED_FIELDS and isinstance(value, float)
                else value
            )
            for key, value in sorted(span.attributes.items())
        },
    }


def trace_records(tracer: Tracer) -> list[dict[str, Any]]:
    """Flatten a tracer's root spans to parent-linked records.

    Span ids are deterministic tree paths (``"0"``, ``"0.2"``,
    ``"0.2.1"``), so two identical trees give identical records.
    """
    records: list[dict[str, Any]] = []

    def visit(span: Span, span_id: str, parent_id: str | None) -> None:
        record = span_record(span)
        record["span_id"] = span_id
        record["parent_id"] = parent_id
        records.append(record)
        for index, child in enumerate(span.children):
            visit(child, f"{span_id}.{index}", span_id)

    for index, root in enumerate(tracer.roots):
        visit(root, str(index), None)
    return records


def spans_from_records(records: list[dict[str, Any]]) -> list[Span]:
    """Rebuild span trees from :func:`trace_records` output."""
    by_id: dict[str, Span] = {}
    roots: list[Span] = []
    for record in records:
        span = Span(
            name=str(record["name"]),
            kind=str(record["kind"]),
            start=float(record["start"]),
            end=float(record["end"]),
            attributes=dict(record.get("attributes", {})),
        )
        by_id[str(record["span_id"])] = span
        parent_id = record.get("parent_id")
        if parent_id is None:
            roots.append(span)
        else:
            parent = by_id.get(str(parent_id))
            if parent is None:
                raise ValueError(
                    f"span {record['span_id']} arrives before its parent {parent_id}"
                )
            parent.children.append(span)
    return roots


# -- module rules ------------------------------------------------------------


def cascade_escalates(cascade, item: Any) -> bool:
    """Whether ``item`` falls in a cascade's uncertainty band."""
    return cascade.lower <= cascade.rule(item) < cascade.upper


def retry_schedule(policy, key: object = 0) -> list[float]:
    """A retry policy's full backoff sequence for one call."""
    return [policy.delay(attempt, key) for attempt in range(policy.max_retries)]
