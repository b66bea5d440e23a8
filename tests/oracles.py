"""Scalar references and trace helpers that only the test suites use.

Production runs the columnar MinHash / LSH kernels
(:mod:`repro.storage.columnar`) and the corpus-wide
:func:`~repro.text.shingle.document_sketches`; the plain-Python forms below
(MinHash, band keys, a sketch of one document on its own) define what those
kernels must equal, bit for bit.  The span-tree helpers walk a
:class:`~repro.obs.trace.Span` tree for the golden and property assertions,
and flatten it to the parent-linked records the golden traces are stored as.
The per-token quality statistics define what the whole-text passes of
:func:`repro.text.quality.quality_stats` must equal, and the window-scan
Jaro what :func:`jaro_similarity` and its batched twin must.
The character-loop language identifier defines the scores
:func:`~repro.text.language.detect_language` must give, and the locked
metric lookups what the registry's unlocked hits must leave the same.
Two more restate a cascade's escalation band and a retry
policy's backoff sequence for the tests that check behaviour against them.
The synthetic-source references derive ER pairs and curation documents the
way the sources first did, through ``random.Random``'s ``choice`` /
``randrange`` / ``randint`` / ``uniform`` wrappers over a per-record
``stable_hash`` seed; the direct ``getrandbits`` derivation must equal them.
"""

from __future__ import annotations

import hashlib
import random
import re
import struct
from typing import Any, Iterator

import numpy as np

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer
from repro.text.language import (
    _ACCENT_CUES,
    _STOPWORDS,
    SUPPORTED_LANGUAGES,
    LanguageGuess,
)
from repro.text.minhash import MINHASH_PRIME, MinHashParams
from repro.text.quality import QualityStats
from repro.text.shingle import (
    knowledge_canonical,
    shingle_id,
    simple_canonical,
    word_shingles,
)
from repro.text.tokenize import word_tokenize

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


def document_sketch_reference(text: str, n: int) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """``(digest, simple ids, knowledge ids)`` of one document sketched on its
    own, from its shingle strings, each distinct one of the two forms hashed once."""
    simple_shingles = word_shingles(simple_canonical(text), n)
    knowledge_shingles = word_shingles(knowledge_canonical(text), n)
    ids = {s: shingle_id(s) for s in {*simple_shingles, *knowledge_shingles}}
    return (
        document_digest(text),
        tuple(sorted({ids[s] for s in simple_shingles})),
        tuple(sorted({ids[s] for s in knowledge_shingles})),
    )


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


# -- language identification ---------------------------------------------------


def detect_language_reference(text: str) -> LanguageGuess:
    """:func:`detect_language` by the character loop: the text lowered once
    per language, one cue-set test per character, 0.5 added per cue."""
    tokens = [t.lower() for t in word_tokenize(text)]
    token_set = set(tokens)
    scores: dict[str, float] = {}
    for lang in SUPPORTED_LANGUAGES:
        hits = sum(1 for t in tokens if t in _STOPWORDS[lang])
        score = float(hits)
        for ch in text.lower():
            if ch in _ACCENT_CUES.get(lang, ()):
                score += 0.5
        scores[lang] = score
    distinctive_zh = {"zuotian", "jintian", "biaoshi", "xuanbu", "huijian",
                      "genju", "baogao", "jinxing", "fabiao", "canjia",
                      "juxing"}
    if not (token_set & distinctive_zh):
        scores["zh"] = 0.0
    total = sum(scores.values())
    if total == 0:
        return LanguageGuess("en", 0.0, scores)
    best = max(SUPPORTED_LANGUAGES, key=lambda lang: scores[lang])
    return LanguageGuess(best, scores[best] / total, scores)


# -- metrics registry -----------------------------------------------------------


class LockedMetricsRegistry(MetricsRegistry):
    """A registry whose every counter and histogram lookup takes the lock
    and makes a histogram's bounds floats first: what the unlocked hits of
    :meth:`MetricsRegistry.counter` and :meth:`MetricsRegistry.histogram`
    must leave the same."""

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._get(name, "counter")
            if metric is None:
                metric = self._metrics[name] = Counter(name, self._lock)
            return metric

    def histogram(self, name: str, bounds=DEFAULT_LATENCY_BUCKETS) -> Histogram:
        bounds = tuple(float(bound) for bound in bounds)
        with self._lock:
            metric = self._get(name, "histogram")
            if metric is None:
                metric = self._metrics[name] = Histogram(name, bounds, self._lock)
            elif metric.bounds != bounds:
                raise ValueError(
                    f"histogram {name!r} already declared with bounds "
                    f"{metric.bounds}, got {bounds}"
                )
            return metric


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


# -- synthetic-source references -----------------------------------------------


def _stable_hash(*parts: object) -> int:
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _seeded(*parts: object) -> random.Random:
    return random.Random(_stable_hash(*parts))


def er_typo_reference(text: str, rng: random.Random) -> str:
    """The batch and streaming ER generators' one-character typo."""
    if len(text) < 4:
        return text
    i = rng.randrange(1, len(text) - 2)
    kind = rng.random()
    if kind < 0.4:
        return text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    if kind < 0.7:
        return text[:i] + text[i + 1 :]
    return text[:i] + text[i] + text[i:]


def er_pair_reference(corpus, index: int):
    """``StreamingERCorpus.pair(index)`` through ``random.Random``'s wrappers."""
    from repro.datasets.catalog import BEER_STYLES, BREWERY_WORDS
    from repro.datasets.entity_resolution import (
        _BREWERY_SUFFIXES,
        _STYLE_REWRITES,
        RecordPair,
    )
    from repro.datasets.streaming import _ADJECTIVES, _NOUNS

    def entity(lot: str) -> dict:
        style = rng.choice(BEER_STYLES)
        return {
            "name": f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} {style}",
            "brewery": f"{rng.choice(BREWERY_WORDS)} {_BREWERY_SUFFIXES[0]}",
            "style": style,
            "abv": f"{rng.uniform(4.0, 11.0):.1f}%",
            "lot": lot,
        }

    if not 0 <= index < corpus.n_pairs:
        raise IndexError(index)
    rng = _seeded(corpus.seed, corpus.name, "pair", index)
    label = 1 if rng.random() < corpus.match_fraction else 0
    lot = f"LOT-{index:08d}"
    left = entity(lot)
    if label:
        right = dict(left)
        style = right["style"]
        if style in _STYLE_REWRITES and rng.random() < 0.6:
            right["style"] = _STYLE_REWRITES[style]
            right["name"] = right["name"].replace(style, _STYLE_REWRITES[style])
        if rng.random() < 0.5:
            base = right["brewery"].removesuffix(" " + _BREWERY_SUFFIXES[0])
            right["brewery"] = f"{base} {rng.choice(_BREWERY_SUFFIXES)}"
        if rng.random() < 0.4:
            right["abv"] = f"{float(right['abv'].rstrip('%')) + 0.1:.1f}%"
        if rng.random() < 0.5:
            right["name"] = er_typo_reference(right["name"], rng)
    else:
        right = entity(f"{lot}-B")
        right["style"] = left["style"]
    return RecordPair(left=left, right=right, label=label, pair_id=f"{corpus.name}-{index}")


def _junk_word_reference(rng: random.Random) -> str:
    from repro.datasets.curation import _CONSONANTS, _JUNK_SYLLABLES, _VOWELS

    parts = [rng.choice(_JUNK_SYLLABLES) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.4:
        parts.append(rng.choice(_CONSONANTS) + rng.choice(_VOWELS))
    return "".join(parts)


def _typo_word_reference(word: str, rng: random.Random) -> str:
    if len(word) < 4:
        return word
    i = rng.randrange(1, len(word) - 1)
    mode = rng.random()
    if mode < 0.34:
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if mode < 0.67:
        return word[:i] + word[i + 1 :]
    return word[:i] + word[i] + word[i:]


def curation_eval_item_reference(eval_set, index: int) -> str:
    """``CurationEvalSet.item(index)`` through ``random.Random``'s wrappers."""
    from repro.datasets.curation import _ADJECTIVES, _NOUNS, _STREETS

    rng = _seeded(eval_set.seed, eval_set.name, "eval", index)
    year = rng.randint(1958, 2014)
    subject = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
    style = rng.choice(("IPA", "ESB", "Porter", "Stout"))
    street = rng.choice(_STREETS)
    code = 1000 + (_stable_hash(eval_set.seed, eval_set.name, "code", index) % 9000)
    frames = (
        f"according to the {year} {street} St. census which brewery "
        f"released the {subject} {style} batch {code} & why",
        f"in the {year} survey on {street} Ave. who brewed the "
        f"{subject} {style} lot {code} & where",
        f"which {subject} {style} from batch {code} won the {year} "
        f"{street} Blvd. tasting & what score",
    )
    return f"Q{index}: {rng.choice(frames)}?"


def _curation_content_reference(corpus, cluster: int) -> tuple[list[str], float]:
    from repro.datasets.catalog import BREWERY_WORDS, CUISINES
    from repro.datasets.curation import (
        _ADJECTIVES,
        _CITIES,
        _CONTENT_STYLES,
        _GENERIC_SENTENCES,
        _NOUNS,
        _SENTENCE_TEMPLATES,
        _STREETS,
        BOILERPLATE_PHRASES,
    )

    rng = _seeded(corpus.seed, corpus.name, "content", cluster)
    quality = rng.random()
    subject = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
    style = rng.choice(_CONTENT_STYLES)
    brewery = rng.choice(BREWERY_WORDS)
    slots = {
        "subject": subject,
        "style": style,
        "brewery": brewery,
        "cuisine": rng.choice(CUISINES).lower(),
        "street": rng.choice(_STREETS),
        "city": rng.choice(_CITIES),
        "number": rng.randint(4, 96),
        "abv": f"{rng.uniform(4.0, 11.0):.1f}",
        "volume": rng.choice(("12oz", "330ml")),
        "suffix": rng.choice(("Co.", "Ltd.")),
        "amp": rng.choice(("&", "and")),
        "color": rng.choice(("amber", "mahogany", "copper", "garnet", "chestnut")),
        "head": rng.choice(("cream", "ivory", "mocha", "tan")),
        "season": rng.choice(("autumn", "winter", "spring", "midsummer")),
        "wood": rng.choice(("oak", "cherrywood", "acacia", "chestnut")),
        "malt": rng.choice(("floor-malted", "kilned", "peated", "biscuit")),
        "hop": rng.choice(("whole-cone", "cryo", "noble", "wet-picked")),
        "finish": rng.choice(("dry", "resinous", "silky", "bracing")),
        "score": rng.randint(81, 99),
    }
    n_templates = len(_SENTENCE_TEMPLATES)
    sentences = [
        _SENTENCE_TEMPLATES[position].format(**slots)
        for position in rng.sample(range(n_templates), rng.randint(6, min(9, n_templates)))
    ]
    for sentence in rng.sample(_GENERIC_SENTENCES, rng.randint(1, 3)):
        sentences.insert(rng.randrange(len(sentences) + 1), sentence)
    junk_count = int(max(0.0, 0.55 - quality) * 16.0 * (0.7 + 0.6 * rng.random()))
    for _ in range(junk_count):
        target = rng.randrange(len(sentences))
        words = sentences[target].split()
        words.insert(rng.randrange(1, len(words)), _junk_word_reference(rng))
        sentences[target] = " ".join(words)
    if quality < 0.55 and rng.random() < (0.85 - quality):
        sentences.insert(
            rng.randrange(len(sentences) + 1),
            rng.choice(BOILERPLATE_PHRASES).capitalize() + ".",
        )
    if quality < 0.5:
        if rng.random() < (0.6 - quality) * 1.4:
            victim = rng.choice(sentences)
            sentences.insert(rng.randrange(len(sentences) + 1), victim)
    if quality < 0.45:
        if rng.random() < 0.7:
            target = rng.randrange(len(sentences))
            words = sentences[target].split()
            sentences[target] = " ".join(words[: max(3, len(words) // 2)])
        for target in range(len(sentences)):
            if sentences[target].endswith(".") and rng.random() < (0.52 - quality):
                sentences[target] = sentences[target][:-1]
    if quality >= 0.6 and rng.random() < 0.35:
        sentences.insert(
            rng.randrange(len(sentences) + 1),
            f"{brewery.upper()} OFFICIAL SPEC {rng.randint(10000, 99999)} "
            f"SERIES {slots['number']}.",
        )
    return sentences, quality


def _curation_mutate_reference(sentences: list[str], rng: random.Random) -> list[str]:
    from repro.datasets.curation import _GENERIC_SENTENCES, _VARIANT_LOOKUP

    out = list(sentences)
    disguised = rng.random() < 0.4
    drops = 1 if (disguised or rng.random() < 0.35) else 0
    for _ in range(drops):
        if len(out) > 4:
            out.pop(rng.randrange(len(out)))
    if disguised:
        present = [i for i, s in enumerate(out) if s in _GENERIC_SENTENCES]
        if present:
            slot = rng.choice(present)
            out[slot] = rng.choice([g for g in _GENERIC_SENTENCES if g != out[slot]])
    if len(out) > 2 and rng.random() < 0.4:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    flip_probability = 0.95 if disguised else 0.6
    mutated: list[str] = []
    for sentence in out:
        words = sentence.split()
        for w, word in enumerate(words):
            stripped = word.rstrip(".,?!")
            if stripped in _VARIANT_LOOKUP and rng.random() < flip_probability:
                words[w] = _VARIANT_LOOKUP[stripped] + word[len(stripped) :]
        mutated.append(" ".join(words))
    typos = rng.randint(0, 2) if disguised else (1 if rng.random() < 0.5 else 0)
    for _ in range(typos):
        target = rng.randrange(len(mutated))
        words = mutated[target].split()
        w = rng.randrange(len(words))
        words[w] = _typo_word_reference(words[w], rng)
        mutated[target] = " ".join(words)
    return mutated


def _curation_disguise_reference(sentence: str, rng: random.Random) -> str:
    from repro.datasets.curation import _VARIANT_LOOKUP

    words = sentence.split()
    for w, word in enumerate(words):
        stripped = word.rstrip(".,?!")
        tail = word[len(stripped) :]
        if stripped in _VARIANT_LOOKUP and rng.random() < 0.85:
            words[w] = _VARIANT_LOOKUP[stripped] + tail
        elif rng.random() < 0.18:
            words[w] = _typo_word_reference(stripped, rng) + tail
    return " ".join(words)


def curation_doc_reference(corpus, index: int, contents: dict | None = None):
    """``CurationCorpus.doc(index)`` derived from scratch, wrappers and all.

    ``contents`` keeps each cluster's canonical content across calls, as a
    corpus object does, so timing a whole corpus compares like with like.
    """
    from repro.datasets.curation import CurationDoc

    def unit(tag: str, i: int) -> float:
        return _stable_hash(corpus.seed, corpus.name, tag, i) / float(1 << 64)

    def is_duplicate(i: int) -> bool:
        return i >= corpus.dup_floor and unit("dup", i) < corpus.dup_fraction

    if not 0 <= index < corpus.n_docs:
        raise IndexError(index)
    cluster = index
    if is_duplicate(index):
        rng = _seeded(corpus.seed, corpus.name, "pick", index)
        low = max(0, index - 64)
        for _ in range(24):
            j = rng.randrange(low, index)
            if not is_duplicate(j):
                cluster = j
                break
        else:
            cluster = next(j for j in range(index - 1, -1, -1) if not is_duplicate(j))
    if contents is None:
        sentences, quality = _curation_content_reference(corpus, cluster)
    else:
        if cluster not in contents:
            contents[cluster] = _curation_content_reference(corpus, cluster)
        sentences, quality = list(contents[cluster][0]), contents[cluster][1]
    if cluster != index:
        rng = _seeded(corpus.seed, corpus.name, "mutate", index)
        sentences = _curation_mutate_reference(sentences, rng)
    contaminated = unit("contam", index) < corpus.contamination_fraction
    eval_index = -1
    if contaminated:
        eval_index = _stable_hash(corpus.seed, corpus.name, "evalpick", index) % corpus.eval_size
        splice = curation_eval_item_reference(corpus.eval_set, eval_index)
        rng = _seeded(corpus.seed, corpus.name, "disguise", index)
        if rng.random() < 0.55:
            splice = _curation_disguise_reference(splice, rng)
        position = _stable_hash(corpus.seed, corpus.name, "slot", index) % (len(sentences) + 1)
        sentences = sentences[:position] + [splice] + sentences[position:]
    doc_id = f"D{index:07d}"
    return CurationDoc(
        index=index,
        doc_id=doc_id,
        text=" ".join(sentences + [f"Catalogue ref {doc_id}."]),
        cluster=cluster,
        is_duplicate=cluster != index,
        quality=quality,
        keep=quality >= 0.5,
        contaminated=contaminated,
        eval_index=eval_index,
    )


# -- decision tree -------------------------------------------------------------------


def _gini_reference(y) -> float:
    if y.size == 0:
        return 0.0
    p = float(y.mean())
    return 2.0 * p * (1.0 - p)


def tree_build_reference(tree, X, y, depth: int, rng) -> tuple:
    """``DecisionTree``'s split search as it first was: two masks and two
    gini calls per threshold.  ``X`` and ``y`` are float64 arrays and
    ``rng`` is seeded as ``fit`` seeds it.  Returns the fitted tree as
    nested ``(feature, threshold, prediction, left, right)`` tuples, a leaf
    as ``(-1, 0.0, prediction, None, None)``."""
    prediction = float(y.mean()) if y.size else 0.5
    leaf = (-1, 0.0, prediction, None, None)
    if depth >= tree.max_depth or y.size < 2 * tree.min_leaf or _gini_reference(y) == 0.0:
        return leaf
    n_features = X.shape[1]
    k = max(1, int(round(tree.max_features * n_features)))
    candidates = (
        list(range(n_features)) if k >= n_features else sorted(rng.sample(range(n_features), k))
    )
    best_gain = 0.0
    best = None
    parent_impurity = _gini_reference(y)
    for feature in candidates:
        column = X[:, feature]
        values = np.unique(column)
        if values.size < 2:
            continue
        thresholds = (values[:-1] + values[1:]) / 2.0
        if thresholds.size > 16:
            idx = np.linspace(0, thresholds.size - 1, 16).astype(int)
            thresholds = thresholds[idx]
        for threshold in thresholds:
            mask = column <= threshold
            n_left = int(mask.sum())
            n_right = y.size - n_left
            if n_left < tree.min_leaf or n_right < tree.min_leaf:
                continue
            gain = parent_impurity - (
                n_left / y.size * _gini_reference(y[mask])
                + n_right / y.size * _gini_reference(y[~mask])
            )
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (feature, float(threshold))
    if best is None:
        return leaf
    feature, threshold = best
    mask = X[:, feature] <= threshold
    return (
        feature,
        threshold,
        prediction,
        tree_build_reference(tree, X[mask], y[mask], depth + 1, rng),
        tree_build_reference(tree, X[~mask], y[~mask], depth + 1, rng),
    )


def tree_predict_reference(root: tuple, X) -> list[float]:
    """P(y=1) per row of ``X``, walking :func:`tree_build_reference`'s tree."""
    out = []
    for row in X:
        node = root
        while node[3] is not None:
            node = node[3] if row[node[0]] <= node[1] else node[4]
        out.append(node[2])
    return out
