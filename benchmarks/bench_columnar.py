"""Columnar kernels against their scalar references — a kernel micro-bench.

Eight kernels are measured against the reference functions the equivalence
suites compare them with, on synthetic corpora sized by
``BENCH_COLUMNAR_RECORDS`` (default 100k records):

- **blocking**: ``_block_columnar`` (one searchsorted join + bincount
  scores + batched banded Levenshtein rescue) vs ``_block_scalar``
  (dict probes, per-pair Levenshtein), both downstream of the shared
  TF-IDF model build;
- **baseline feature extraction**: ``PairFeatureExtractor.transform`` vs
  stacked ``transform_pair`` rows over the full Magellan/Ditto metric menu;
- **quality statistics**: ``quality_stats`` (whole-text regex passes) vs
  the per-token ``per_token_quality_stats`` of ``tests/oracles.py``, over
  one ``CurationCorpus`` document per 40 records (2 500 by default);
- **long-document Jaro**: ``jaro_similarity`` (a stack of unmatched
  positions per character) vs the window scan ``jaro_reference`` of
  ``tests/oracles.py``, over pairs of ``CurationCorpus`` documents (one per
  400 records, 250 by default), each with its neighbour;
- **source derivation**: ``StreamingERCorpus`` pairs and ``CurationCorpus``
  documents drawn straight from ``getrandbits`` / ``random()`` vs the
  ``random.Random`` wrapper derivation of ``tests/oracles.py`` (one pair
  per 40 records and one document per 150: 2 500 and 666 by default), with
  the seeding floor (blake2b + ``random.Random(seed)`` + one draw per pair)
  beside them.  Its JSON also records the commit and the host;
- **per-call prompt path**: per ER pair (one per 250 records, 400 by
  default) ``render_pair`` vs the stdlib ``JSONEncoder.encode``, a
  ``CallRecord`` named tuple vs the frozen dataclass it was, and one
  record's metrics mirror vs the lock-every-lookup
  ``LockedMetricsRegistry``; per names document (192) ``detect_language``
  vs its character-loop oracle.  Its JSON records the commit and host too;
- **warm cache open**: opening ER cache journals (blocks of 200) of 600
  entries and of one per 10 records (10 000 by default), alone and with
  ``state_digests`` (the pin a run header records), vs the frozen-dataclass
  key the cache had, whose digest is taken from the whole prompt at the
  pin.  Its JSON records the commit and host too;
- **curation scans**: the dedup candidate scan over one ``CurationCorpus``
  document per 625 records (160 by default) with ``document_sketches``
  (each distinct text and shingle string once per scan) vs each document
  sketched on its own (``document_sketch_reference``), and the
  decontamination verdicts of one document per 200 records (500) by the
  soft-first ``overlap_tier`` vs the full ``overlap_profile``.  Equal pairs
  and verdicts are asserted; its JSON records the commit and host too.

The reference side of feature extraction is measured on a
``BENCH_COLUMNAR_SCALAR_SAMPLE`` subset (default 4000 pairs) and
rate-extrapolated — running the per-pair oracle over all 100k pairs
would take minutes and adds no information.  Both paths are also checked
for *identical output* while being timed, so the speedup can never come
from computing something different.

The speedups are recorded (``BENCH_columnar_*.json``), not gated: a
host-speed ratio reads differently on a loaded machine, while the
output-equality asserts hold anywhere.  CI smoke narrows the corpus via
the env knobs.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import sys
import time
from array import array
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import numpy as np

from repro._jsonl import CheckpointJournal, _decode_block, _dump_scalar
from repro._util import indexed_hash, stable_prefix
import repro.core.compiler.curation as curation_kernels
from repro.core.compiler.registry import render_pair
from repro.core.modules.llm_module import encode_payload
from repro.datasets.curation import CurationCorpus
from repro.datasets.names import generate_name_dataset
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.streaming import StreamingERCorpus
from repro.llm.cache import _ENTRY_FIELDS, CacheKey, PromptCache
from repro.llm.providers import LLMResponse, SimulatedProvider
from repro.llm.service import CallRecord, LLMService
from repro.ml.features import PAIR_FEATURE_NAMES, PairFeatureExtractor
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.tasks.blocking import _block_columnar, _block_scalar
from repro.text.language import detect_language
from repro.text.normalize import normalize_text
from repro.text.overlap import build_ngram_index, overlap_profile, overlap_tier
from repro.text.quality import quality_stats
from repro.text.shingle import DocumentSketch
from repro.text.similarity import TfIdfModel, jaro_similarity

from _harness import emit, emit_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import (  # noqa: E402
    LockedMetricsRegistry,
    curation_doc_reference,
    detect_language_reference,
    document_sketch_reference,
    er_pair_reference,
    jaro_reference,
    per_token_quality_stats,
)

N_RECORDS = int(os.environ.get("BENCH_COLUMNAR_RECORDS", "100000"))
SCALAR_SAMPLE = int(os.environ.get("BENCH_COLUMNAR_SCALAR_SAMPLE", "4000"))
REPEATS = int(os.environ.get("BENCH_COLUMNAR_REPEATS", "2"))


def _best_of(fn, repeats: int = REPEATS):
    """Best-of-``repeats`` wall time: damps scheduler/cache noise for both
    contenders equally.  Returns ``(seconds, result)``."""
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 9)))
        for _ in range(size)
    ]


def _synthetic_records(n: int, seed: int, dirty_fraction: float = 0.0) -> list[dict]:
    """Product-ish records: multi-word name, short brand, numeric field.

    The token and brand pools are derived from fixed seeds so that two
    record streams (``seed=1`` vs ``seed=2``) describe the same domain —
    real ER sides share a vocabulary; disjoint pools would push every
    record into the Levenshtein rescue and benchmark nothing else.

    ``dirty_fraction`` of the records get OCR-grade corruption: one
    deletion in *every* name token, the documented blind spot of token
    blocking, which routes those records through the sorted-neighborhood
    rescue — the regime a curation deployment over dirty data lives in.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(random.Random(1234), max(1000, n // 4))
    brands = _vocabulary(random.Random(4321), max(50, n // 200))
    records = []
    for _ in range(n):
        name = " ".join(rng.choice(vocab) for _ in range(4))
        if rng.random() < dirty_fraction:
            name = " ".join(
                token[:k] + token[k + 1 :]
                for token in name.split()
                for k in (rng.randrange(len(token)),)
            )
        elif rng.random() < 0.1:  # light typos keep the rescue gate honest
            name = name.replace(name[rng.randrange(len(name))], "", 1)
        records.append(
            {
                "name": name,
                "brand": rng.choice(brands) if rng.random() > 0.05 else None,
                "abv": f"{rng.uniform(3, 12):.1f}%" if rng.random() > 0.1 else "",
            }
        )
    return records


def test_blocking_speedup():
    per_side = max(N_RECORDS // 2, 10)
    left = _synthetic_records(per_side, seed=1, dirty_fraction=0.4)
    right = _synthetic_records(per_side, seed=2)
    left_texts = [normalize_text(str(r.get("name") or "")) for r in left]
    right_texts = [normalize_text(str(r.get("name") or "")) for r in right]
    model = TfIdfModel(left_texts + right_texts)
    params = dict(
        max_candidates_per_record=5,
        min_shared_tokens=1,
        neighborhood_window=3,
        fallback_similarity=0.55,
    )

    scalar_seconds, (scalar_pairs, scalar_considered) = _best_of(
        lambda: _block_scalar(left_texts, right_texts, model, **params)
    )
    columnar_seconds, (columnar_pairs, columnar_considered) = _best_of(
        lambda: _block_columnar(left_texts, right_texts, model, **params)
    )

    assert columnar_pairs == scalar_pairs
    assert columnar_considered == scalar_considered
    speedup = scalar_seconds / columnar_seconds
    emit(
        "columnar_blocking",
        f"blocking hot path, {per_side:,} x {per_side:,} records "
        f"({len(scalar_pairs):,} candidate pairs):\n"
        f"scalar   {scalar_seconds:8.3f}s\n"
        f"columnar {columnar_seconds:8.3f}s\n"
        f"speedup  {speedup:7.1f}x (identical pairs and counts)",
    )
    emit_json(
        "columnar_blocking",
        [
            {"name": "scalar", "wall_seconds": scalar_seconds},
            {"name": "columnar", "wall_seconds": columnar_seconds},
        ],
        speedup=speedup,
        candidate_pairs=len(scalar_pairs),
    )


def _catalog_records(n: int, seed: int) -> list[dict]:
    """Product records with heavy-tailed name tokens.

    Real attribute-value tokens are zipf-ish; ``1/sqrt(rank)`` keeps the
    head common without one stop-word dominating the join.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(random.Random(1234), 6000)
    weights = [1.0 / math.sqrt(rank) for rank in range(1, len(vocab) + 1)]
    cum_weights = list(itertools.accumulate(weights))
    brands = _vocabulary(random.Random(4321), 60)
    records = []
    for _ in range(n):
        name = " ".join(rng.choices(vocab, cum_weights=cum_weights, k=4))
        if rng.random() < 0.1:
            name = name.replace(name[rng.randrange(len(name))], "", 1)
        records.append(
            {
                "name": name,
                "brand": rng.choice(brands) if rng.random() > 0.05 else None,
                "abv": f"{rng.uniform(3, 12):.1f}%" if rng.random() > 0.1 else "",
            }
        )
    return records


def _candidate_pairs(n_pairs: int, seed: int) -> list[tuple[dict, dict]]:
    """Blocking-shaped pair workload.

    Downstream of blocking each left record appears in up to
    ``max_candidates_per_record`` pairs and short attributes repeat across
    the batch — the shape the columnar cache exploits — so the bench pairs
    mirror that instead of zipping two fully unique record streams.
    """
    per_record = 5
    rng = random.Random(seed)
    left = _catalog_records(max(n_pairs // per_record, 1), seed + 10)
    right = _catalog_records(max(n_pairs // per_record, 1), seed + 20)
    pairs = [
        (record, rng.choice(right)) for record in left for _ in range(per_record)
    ]
    rng.shuffle(pairs)
    return pairs[:n_pairs]


def test_feature_extraction_speedup():
    n_pairs = max(N_RECORDS, 10)
    sample = min(SCALAR_SAMPLE, n_pairs)
    pairs = _candidate_pairs(n_pairs, seed=3)
    attributes = ("name", "brand", "abv")

    def reference_rows():
        extractor = PairFeatureExtractor(attributes)
        return np.stack(
            [extractor.transform_pair(left, right) for left, right in pairs[:sample]]
        )

    scalar_seconds, scalar_matrix = _best_of(reference_rows)
    scalar_rate = sample / scalar_seconds

    columnar_seconds, columnar_matrix = _best_of(
        lambda: PairFeatureExtractor(attributes).transform(pairs)
    )
    columnar_rate = n_pairs / columnar_seconds

    # Equivalence while being timed: the sampled prefix must be bit-equal.
    assert np.array_equal(columnar_matrix[:sample], scalar_matrix)
    speedup = columnar_rate / scalar_rate
    emit(
        "columnar_features",
        f"pair feature extraction ({len(attributes)} attributes, "
        f"{len(PAIR_FEATURE_NAMES)} metrics):\n"
        f"scalar   {scalar_rate:10,.0f} pairs/s (measured on {sample:,})\n"
        f"columnar {columnar_rate:10,.0f} pairs/s (measured on {n_pairs:,})\n"
        f"speedup  {speedup:7.1f}x (bit-identical features)",
    )
    emit_json(
        "columnar_features",
        [
            {
                "name": "scalar",
                "wall_seconds": scalar_seconds,
                "pairs_per_sec": scalar_rate,
            },
            {
                "name": "columnar",
                "wall_seconds": columnar_seconds,
                "pairs_per_sec": columnar_rate,
            },
        ],
        speedup=speedup,
    )


def test_quality_kernel_speedup():
    texts = [doc.text for doc in CurationCorpus(max(N_RECORDS // 40, 50), seed=7)]

    per_token_seconds, per_token_rows = _best_of(
        lambda: [per_token_quality_stats(text) for text in texts]
    )
    one_pass_seconds, one_pass_rows = _best_of(
        lambda: [quality_stats(text) for text in texts]
    )

    assert one_pass_rows == per_token_rows
    speedup = per_token_seconds / one_pass_seconds
    emit(
        "columnar_quality",
        f"quality statistics, {len(texts):,} curation documents:\n"
        f"per-token {per_token_seconds:8.3f}s\n"
        f"one-pass  {one_pass_seconds:8.3f}s\n"
        f"speedup   {speedup:7.2f}x (identical stats)",
    )
    emit_json(
        "columnar_quality",
        [
            {"name": "per_token", "wall_seconds": per_token_seconds},
            {"name": "one_pass", "wall_seconds": one_pass_seconds},
        ],
        speedup=speedup,
        documents=len(texts),
    )


def test_jaro_kernel_speedup():
    texts = [doc.text for doc in CurationCorpus(max(N_RECORDS // 400, 20), seed=7)]
    pairs = list(zip(texts, texts[1:] + texts[:1]))
    mean_chars = sum(len(text) for text in texts) / len(texts)

    window_seconds, window_scores = _best_of(
        lambda: [jaro_reference(a, b) for a, b in pairs]
    )
    linear_seconds, linear_scores = _best_of(
        lambda: [jaro_similarity(a, b) for a, b in pairs]
    )

    assert linear_scores == window_scores
    speedup = window_seconds / linear_seconds
    emit(
        "columnar_jaro",
        f"Jaro similarity, {len(pairs):,} curation document pairs "
        f"({mean_chars:.0f} characters a document):\n"
        f"window scan {window_seconds:8.3f}s\n"
        f"linear      {linear_seconds:8.3f}s\n"
        f"speedup     {speedup:7.2f}x (bit-equal scores)",
    )
    emit_json(
        "columnar_jaro",
        [
            {"name": "window_scan", "wall_seconds": window_seconds},
            {"name": "linear", "wall_seconds": linear_seconds},
        ],
        speedup=speedup,
        pairs=len(pairs),
        mean_chars=round(mean_chars, 1),
    )


def test_source_derivation_speedup():
    er = StreamingERCorpus(max(N_RECORDS // 40, 200), seed=7)
    n_docs = max(N_RECORDS // 150, 100)
    # Each repetition takes tens of milliseconds, so more of them fit.
    repeats = max(REPEATS, 15)

    er_reference_seconds, reference_pairs = _best_of(
        lambda: [er_pair_reference(er, index) for index in range(len(er))], repeats
    )
    er_direct_seconds, direct_pairs = _best_of(lambda: list(er), repeats)
    prefix = stable_prefix(er.seed, er.name, "pair")
    floor_seconds, _ = _best_of(
        lambda: [random.Random(indexed_hash(prefix, index)).random() for index in range(len(er))],
        repeats,
    )
    assert direct_pairs == reference_pairs

    def reference_docs():
        corpus, contents = CurationCorpus(n_docs, seed=7), {}
        return [curation_doc_reference(corpus, index, contents) for index in range(n_docs)]

    # A fresh corpus object per repetition: it keeps what it has derived.
    doc_reference_seconds, reference_docs_out = _best_of(reference_docs, repeats)
    doc_direct_seconds, direct_docs = _best_of(
        lambda: list(CurationCorpus(n_docs, seed=7)), repeats
    )
    assert direct_docs == reference_docs_out

    pairs, docs = len(er), n_docs
    emit(
        "columnar_sources",
        f"source derivation, {pairs:,} StreamingERCorpus pairs and "
        f"{docs:,} CurationCorpus documents (best of {repeats}):\n"
        f"ER reference   {er_reference_seconds:8.4f}s {pairs / er_reference_seconds:9.0f} pairs/s\n"
        f"ER direct      {er_direct_seconds:8.4f}s {pairs / er_direct_seconds:9.0f} pairs/s\n"
        f"ER seed floor  {floor_seconds:8.4f}s\n"
        f"doc reference  {doc_reference_seconds:8.4f}s {docs / doc_reference_seconds:9.0f} docs/s\n"
        f"doc direct     {doc_direct_seconds:8.4f}s {docs / doc_direct_seconds:9.0f} docs/s\n"
        f"speedup        {er_reference_seconds / er_direct_seconds:7.2f}x pairs, "
        f"{doc_reference_seconds / doc_direct_seconds:.2f}x docs (equal records)",
    )
    emit_json(
        "columnar_sources",
        [
            {"name": "er_reference", "wall_seconds": er_reference_seconds,
             "records_per_s": pairs / er_reference_seconds},
            {"name": "er_direct", "wall_seconds": er_direct_seconds,
             "records_per_s": pairs / er_direct_seconds},
            {"name": "er_seed_floor", "wall_seconds": floor_seconds},
            {"name": "doc_reference", "wall_seconds": doc_reference_seconds,
             "records_per_s": docs / doc_reference_seconds},
            {"name": "doc_direct", "wall_seconds": doc_direct_seconds,
             "records_per_s": docs / doc_direct_seconds},
        ],
        pairs=pairs,
        documents=docs,
        repeats=repeats,
        er_speedup=er_reference_seconds / er_direct_seconds,
        doc_speedup=doc_reference_seconds / doc_direct_seconds,
    )


#: ``CallRecord`` as the frozen dataclass it was: the same fields, order
#: and defaults, one ``object.__setattr__`` per field when built.
FrozenCallRecord = dataclasses.make_dataclass(
    "FrozenCallRecord",
    [
        (name, object, dataclasses.field(default=CallRecord._field_defaults[name]))
        if name in CallRecord._field_defaults
        else (name, object)
        for name in CallRecord._fields
    ],
    frozen=True,
)


#: ``encode_payload`` as it was: the stdlib encoder's ``encode``, which
#: builds a C encoder per call.
_stdlib_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, default=str).encode


def _stdlib_pair(pair: dict) -> str:
    """:func:`render_pair` through :data:`_stdlib_encode`."""
    return (
        "Record A: " + _stdlib_encode(pair["left"])
        + "\nRecord B: " + _stdlib_encode(pair["right"])
    )


def _published(registry: MetricsRegistry, records: list) -> dict:
    """The registry a fresh service fills mirroring ``records``."""
    obs = Observability()
    obs.metrics = registry
    service = LLMService(obs=obs)
    for record in records:
        service._publish_record(record)
    return registry.as_dict()


def test_prompt_path_speedup():
    """The per-call work around one ER prompt: render it, ledger it, mirror
    the ledger record into metrics; and the language check a names
    document pays before its prompt.  Each step against what it replaced."""
    pairs = list(StreamingERCorpus(max(N_RECORDS // 250, 200), seed=7).inputs())
    service = LLMService(SimulatedProvider())
    for pair in pairs:
        service.complete(render_pair(pair))
    records = list(service.records)
    fields = [record._asdict() for record in records]
    texts = [doc.text for doc in generate_name_dataset(seed=3, n_documents=192).documents]
    # Each repetition takes a few milliseconds, so more of them fit.
    repeats = max(REPEATS, 15)

    rows = {}
    for step, n, reference, direct in (
        ("render", len(pairs),
         lambda: [_stdlib_pair(pair) for pair in pairs],
         lambda: [render_pair(pair) for pair in pairs]),
        ("record", len(fields),
         lambda: [FrozenCallRecord(**item) for item in fields],
         lambda: [CallRecord(**item) for item in fields]),
        ("publish", len(records),
         lambda: _published(LockedMetricsRegistry(), records),
         lambda: _published(MetricsRegistry(), records)),
        ("language", len(texts),
         lambda: [detect_language_reference(text) for text in texts],
         lambda: [detect_language(text) for text in texts]),
    ):
        reference_seconds, reference_out = _best_of(reference, repeats)
        direct_seconds, direct_out = _best_of(direct, repeats)
        if step == "record":  # a named tuple equals its fields' tuple
            reference_out = [dataclasses.astuple(item) for item in reference_out]
        assert direct_out == reference_out, step
        rows[step] = (n, reference_seconds / n * 1e6, direct_seconds / n * 1e6)

    emit(
        "columnar_prompt",
        f"per-call prompt path, {len(pairs):,} StreamingERCorpus pairs and "
        f"{len(texts):,} names documents (best of {repeats}, µs a call):\n"
        + "\n".join(
            f"{step:9s} {before:7.2f} -> {after:6.2f}  {before / after:5.2f}x"
            for step, (_, before, after) in rows.items()
        )
        + "\n(equal prompts, record fields, metrics and language scores)",
    )
    emit_json(
        "columnar_prompt",
        [
            {"name": step, "calls": n, "reference_us": before, "direct_us": after,
             "speedup": before / after}
            for step, (n, before, after) in rows.items()
        ],
        pairs=len(pairs),
        documents=len(texts),
        repeats=repeats,
    )


def _hash_once(key) -> int:
    """``hash`` of a frozen key, kept once computed (as ``CacheKey`` kept it)."""
    value = key._hash
    if value is None:
        value = hash((key.provider, key.version, key.prompt, key.max_tokens, key.namespace))
        object.__setattr__(key, "_hash", value)
    return value


#: ``CacheKey`` as the frozen dataclass it was: the same fields, order and
#: default, its digest and hash kept on it outside its identity.
FrozenCacheKey = dataclasses.make_dataclass(
    "FrozenCacheKey",
    [
        *((name, object) for name in CacheKey._fields[:-1]),
        ("namespace", object, dataclasses.field(default="")),
        *(
            (name, object, dataclasses.field(default=None, init=False, repr=False, compare=False))
            for name in ("_digest", "_hash")
        ),
    ],
    frozen=True,
    namespace={"__hash__": _hash_once},
)


def _frozen_digest(key) -> str:
    """``key_digest`` as it was: the whole payload hashed, once per key."""
    digest = key._digest
    if digest is None:
        parts: list = [key.provider, key.version, key.prompt, key.max_tokens]
        if key.namespace:
            parts.append(key.namespace)
        payload = b"[" + b", ".join(map(_dump_scalar, parts)) + b"]"
        digest = hashlib.sha256(payload).hexdigest()[:16]
        object.__setattr__(key, "_digest", digest)
    return digest


def _frozen_entry(
    provider, version, namespace, max_tokens, prompt,
    text, prompt_tokens, completion_tokens, model, skill, latency,
):  # fmt: skip
    """``_entry`` building the frozen key: the same checks, in the same order."""
    if not (
        type(provider) is type(version) is type(namespace) is type(prompt)
        is type(text) is type(model) is type(skill) is str
        and type(max_tokens) is type(prompt_tokens) is type(completion_tokens) is int
        and type(latency) in (int, float)
    ):  # fmt: skip
        raise TypeError("a cache entry column has the wrong JSON type")
    return (
        FrozenCacheKey(provider, version, prompt, max_tokens, namespace),
        LLMResponse(text, prompt_tokens, completion_tokens, model, skill, float(latency)),
    )


class _FrozenKeyJournal(CheckpointJournal):
    """``CacheJournal`` as it was: blocks joined back into whole-prompt rows,
    one frozen key per row, then replayed into a dict and listed."""

    @staticmethod
    def _decode(record):
        if record["fields"] != _ENTRY_FIELDS:
            raise ValueError("a cache block of the wrong fields")
        return [_frozen_entry(*row) for row in _decode_block(record)[1]]

    def replay(self) -> list:
        entries: dict = {}
        for line in self.load():
            for key, response in line:
                entries.pop(key, None)
                entries[key] = response
        return list(entries.items())


def _frozen_open(path: Path, pin: bool):
    """Open ``path`` the way ``PromptCache`` did; pin it if asked."""
    live: OrderedDict = OrderedDict()
    for key, response in _FrozenKeyJournal(path).replay():
        live[key] = response
    return live, sorted(_frozen_digest(key) for key in live) if pin else None


def _tuple_open(path: Path, pin: bool):
    cache = PromptCache(path=path)
    return cache._entries, cache.state_digests() if pin else None


def _same_state(reference, direct) -> bool:
    (frozen, frozen_digests), (live, digests) = reference, direct
    return frozen_digests == digests and [
        ((key.provider, key.version, key.prompt, key.max_tokens, key.namespace), response)
        for key, response in frozen.items()
    ] == [(tuple(key), response) for key, response in live.items()]


def _er_cache_journal(path: Path, entries: int) -> None:
    """A cache journal of ``entries`` ER prompts, written as a warm start's
    set-up writes it (chunks of 200, so blocks of 200)."""
    corpus = StreamingERCorpus(entries, seed=7)
    service = LLMService(SimulatedProvider(), cache=PromptCache(path=path, max_entries=entries))
    pipeline = get_template("entity_resolution").instantiate(examples=corpus.examples())
    LinguaManga(service=service).run_stream(
        pipeline, {"pairs": corpus.inputs()}, chunk_size=200, window=8,
        source_id=corpus.fingerprint, sink=lambda outputs: None,
    )  # fmt: skip
    service.cache.close()
    assert len(PromptCache(path=path, max_entries=entries)) == entries


def test_cache_open_speedup(tmp_path):
    """Opening a journaled prompt cache, and opening and pinning it (its
    ``state_digests``, which a run header records), against the frozen
    dataclass key whose digest is recomputed from the whole prompt."""
    sizes = sorted({600, max(N_RECORDS // 10, 600)})
    repeats = max(REPEATS, 15)
    rows = []
    for entries in sizes:
        path = tmp_path / f"cache_{entries}.jsonl"
        _er_cache_journal(path, entries)
        for step, pin in (("open", False), ("open_pin", True)):
            # Alternate the two, each after a full collection with nothing
            # of the other alive: a warm start opens into a fresh heap.
            best = [float("inf"), float("inf")]
            for _ in range(repeats):
                outs = []
                for side, open_ in enumerate((_frozen_open, _tuple_open)):
                    gc.collect()
                    started = time.perf_counter()
                    outs.append(open_(path, pin))
                    best[side] = min(best[side], time.perf_counter() - started)
                assert _same_state(*outs), (step, entries)
                del outs
            rows.append((step, entries, *best))

    emit(
        "columnar_cache_open",
        "warm prompt-cache open, ER journals in blocks of 200 "
        f"(best of {repeats}, alternating; ms):\n"
        + "\n".join(
            f"{step:9s} {entries:6,d} {before * 1e3:8.2f} -> {after * 1e3:7.2f}  "
            f"{(after - before) / before:+6.1%}"
            for step, entries, before, after in rows
        )
        + "\n(equal entries, in order, and equal state digests)",
    )
    emit_json(
        "columnar_cache_open",
        [
            {"name": f"{step}_{entries}", "entries": entries, "reference_seconds": before,
             "direct_seconds": after, "speedup": before / after}
            for step, entries, before, after in rows
        ],
        repeats=repeats,
    )


def _sketched_alone(texts, n: int) -> list[DocumentSketch]:
    """The per-document path: every text sketched on its own, repeats too."""
    return [
        DocumentSketch(digest, *(memoryview(array("I", ids)).toreadonly() for ids in rows))
        for digest, *rows in (document_sketch_reference(text, n) for text in texts)
    ]


def test_curation_scan_speedup():
    """The dedup candidate scan and the decontamination rule of the
    ``curation_batch`` workload, each against its per-document path."""
    repeats = max(REPEATS, 15)
    records = [doc.record() for doc in CurationCorpus(max(N_RECORDS // 625, 40), seed=7)]
    flagged = CurationCorpus(max(N_RECORDS // 200, 50), seed=7)
    texts = [doc.text for doc in flagged]
    items = list(flagged.eval_set.items())
    hard_n, soft_n = curation_kernels.DECONTAM_HARD_N, curation_kernels.DECONTAM_SOFT_N
    hard, soft = build_ngram_index(items, hard_n), build_ngram_index(items, soft_n)

    def scan(sketcher):
        curation_kernels.dedup_candidate_pairs([])  # no last scan to recall
        with mock.patch.object(curation_kernels, "document_sketches", sketcher):
            return curation_kernels.dedup_candidate_pairs(records)

    def profiled():
        verdicts = []
        for text in texts:
            profile = overlap_profile(text, hard, soft, hard_n=hard_n, soft_n=soft_n)
            verdicts.append(2 if profile.hard_hits else 1 if profile.soft_hits else 0)
        return verdicts

    contenders = {
        "scan": (lambda: scan(_sketched_alone), lambda: scan(curation_kernels.document_sketches)),
        "decontam": (
            profiled,
            lambda: [overlap_tier(t, hard, soft, hard_n=hard_n, soft_n=soft_n) for t in texts],
        ),
    }
    rows = []
    for step, sides in contenders.items():
        # Alternate the two, each after a full collection.
        best = [float("inf"), float("inf")]
        for _ in range(repeats):
            outs = []
            for side, run in enumerate(sides):
                gc.collect()
                started = time.perf_counter()
                outs.append(run())
                best[side] = min(best[side], time.perf_counter() - started)
            assert outs[0] == outs[1], step
        rows.append((step, *best))
    verdicts = outs[1]

    emit(
        "columnar_curation_scan",
        f"curation scans (best of {repeats}, alternating; ms):\n"
        + "\n".join(
            f"{step:9s} {before * 1e3:8.2f} -> {after * 1e3:7.2f}  "
            f"{(after - before) / before:+6.1%}"
            for step, before, after in rows
        )
        + f"\n({len(records)} documents scanned, equal pairs; {len(texts)} flagged, "
        f"{verdicts.count(0)} without a soft hit, equal verdicts)",
    )
    emit_json(
        "columnar_curation_scan",
        [
            {"name": step, "reference_seconds": before, "direct_seconds": after,
             "speedup": before / after}
            for step, before, after in rows
        ],
        scanned=len(records),
        flagged=len(texts),
        soft_hits=len(texts) - verdicts.count(0),
        hard_hits=verdicts.count(2),
        repeats=repeats,
    )
