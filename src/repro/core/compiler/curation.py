"""Compiler factories for the corpus-curation operator family.

Three operator kinds (paper section 4's "data curation tasks", scaled to
corpus curation):

- ``dedup_candidates`` — a whole-corpus *custom* kernel: exact content
  digests plus MinHash/LSH banding produce the candidate duplicate pairs
  that the downstream ``match_entities`` verifier adjudicates.  The LLM
  wedge lives in candidate **recall**: the candidate scan runs twice, once
  over a knowledge-free canonical form and once over the knowledge
  canonical form (:func:`repro.text.shingle.knowledge_canonical`), so
  disguised near-duplicates whose surface shingles have drifted apart
  still collide in the knowledge pass.
- ``quality_filter`` — a classifier cascade
  (:class:`repro.core.modules.cascade.CascadeModule`): the free surface
  heuristic :func:`repro.text.quality.rule_quality_score` answers documents
  outside its uncertainty band; the band escalates to an LLM teacher (and,
  with ``distill=True``, to the distillation router in front of it).
- ``decontaminate`` — the same cascade shape over an n-gram containment
  scan against a held-out eval set: a *hard* (8-gram) hit is flagged
  without any LLM call, a document with no *soft* (4-gram) hit is cleared
  for free, and only the soft-but-not-hard gray zone is adjudicated by the
  LLM against the specific benchmark item it collided with.

All three factories fold their configuration into module identity (the
kernel parameters via :class:`CorpusKernelModule`, the cascade thresholds
and scan fingerprint via ``CascadeModule.config_identity``), so checkpoint
resume and the prompt-cache ledger notice parameter changes.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Sequence

from repro._util import stable_hash
from repro.core.compiler.context import CompilerContext
from repro.core.compiler.registry import (
    CompileError,
    _maybe_map,
    register_strategy,
)
from repro.core.dsl.operators import LogicalOperator
from repro.core.modules.base import Module
from repro.core.modules.cascade import CascadeModule
from repro.core.modules.custom import CustomModule
from repro.core.modules.llm_module import LLMModule, encode_payload, parse_yes_no
from repro.storage.columnar import band_keys_many, minhash_signatures_many
from repro.text.minhash import minhash_params
from repro.text.overlap import build_ngram_index, overlap_profile, overlap_tier
from repro.text.quality import rule_quality_score
from repro.text.shingle import document_sketches, exact_jaccard

__all__ = [
    "CorpusKernelModule",
    "DEDUP_VERIFY_TASK",
    "DEDUP_VERIFY_LOWER",
    "DEDUP_VERIFY_UPPER",
    "DEDUP_NUM_PERM",
    "DEDUP_BANDS",
    "DEDUP_ROWS",
    "DEDUP_SHINGLE_N",
    "QUALITY_RULE_LOWER",
    "QUALITY_RULE_UPPER",
    "DECONTAM_HARD_N",
    "DECONTAM_SOFT_N",
    "dedup_candidate_pairs",
    "candidate_pair_records",
    "render_document",
    "eval_items_fingerprint",
]


# -- dedup defaults (bands * rows == num_perm) --------------------------------

DEDUP_NUM_PERM = 128
DEDUP_BANDS = 32
DEDUP_ROWS = 4
DEDUP_SHINGLE_N = 3

# -- quality cascade band -----------------------------------------------------

#: Rule-score band escalated to the teacher.  Calibrated on the synthetic
#: corpus: below the band the surface heuristics are confidently right about
#: badness, above it confidently right about goodness (~3% rule error on the
#: covered tails).  The band is wide on purpose — the rule's blind spots
#: (pseudo-word junk it cannot read, ALL-CAPS decoys it wrongly punishes)
#: live in the middle, and the distillation router in front of the teacher
#: absorbs most escalations after warm-up.
QUALITY_RULE_LOWER = 0.72
QUALITY_RULE_UPPER = 0.98

# -- decontamination scan -----------------------------------------------------

#: Raw-token n-gram sizes of the two-tier scan: a *hard* hit (8 tokens
#: verbatim) flags without an LLM call; *soft* hits (4 tokens) only mark the
#: gray zone that escalates.
DECONTAM_HARD_N = 8
DECONTAM_SOFT_N = 4


# ---------------------------------------------------------------------------
# A CustomModule whose configuration participates in plan identity
# ---------------------------------------------------------------------------


class CorpusKernelModule(CustomModule):
    """Whole-corpus custom kernel with parameters folded into its identity.

    Plain :class:`CustomModule` identity is ``{type, name}`` — enough for
    user-provided functions, not for a parameterised kernel whose output
    changes with its knobs.  Checkpoint fingerprints must notice a changed
    band count, so the kernel parameters ride along here.
    """

    def __init__(self, name: str, fn, description: str, identity: dict):
        super().__init__(name, fn, description)
        self._kernel_identity = dict(identity)

    def config_identity(self) -> dict:
        identity = super().config_identity()
        identity["kernel"] = dict(self._kernel_identity)
        return identity


# ---------------------------------------------------------------------------
# Dedup candidate generation (exact digests + dual-pass MinHash/LSH)
# ---------------------------------------------------------------------------


def _doc_text(doc: Any) -> str:
    if isinstance(doc, dict):
        return str(doc.get("text", ""))
    return str(doc)


def _doc_id(doc: Any, index: int) -> Any:
    if isinstance(doc, dict) and "id" in doc:
        return doc["id"]
    return index


def _bucket_pairs(buckets: Iterable[set], pairs: set) -> None:
    for bucket in buckets:
        if len(bucket) < 2:
            continue
        members = sorted(bucket)
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                pairs.add((left, right))


#: ``(key, pairs, shingle_n, knowledge_ids)`` of the last scan.  A batch
#: dedup run asks for one corpus's pairs twice — the pipeline's kernel, then
#: the runner's score — and the second ask is answered from here.  The verify
#: rung then scores those pairs from ``knowledge_ids``, the scan's ids keyed
#: by text, held only for documents in some pair.  One entry, replaced
#: whole, so threads see old or new.
_last_scan: tuple[bytes, tuple[tuple, ...], int, dict[str, memoryview]] = (b"", (), 0, {})


def _scan_key(ids: list, texts: list[str], config: tuple) -> bytes:
    state = hashlib.blake2b(repr(config).encode("utf-8"), digest_size=16)
    for doc_id, text in zip(ids, texts):
        # ``repr`` of a tuple is self-delimiting: distinct inputs, distinct bytes.
        state.update(repr((doc_id, text)).encode("utf-8"))
    return state.digest()


def dedup_candidate_pairs(
    docs: Sequence[Any],
    *,
    num_perm: int = DEDUP_NUM_PERM,
    bands: int = DEDUP_BANDS,
    rows: int = DEDUP_ROWS,
    shingle_n: int = DEDUP_SHINGLE_N,
    dual: bool = True,
) -> list[tuple]:
    """Candidate duplicate pairs of ``docs``, globally sorted by id.

    Three tiers, unioned:

    1. **exact** — documents with equal content digests;
    2. **simple LSH** — banding over the knowledge-free canonical form;
    3. **knowledge LSH** (``dual=True``) — banding over the knowledge
       canonical form, which is where disguised near-duplicates (variant
       rewrites, typos) still collide.

    Output is a sorted list of ``(left_id, right_id)`` with ``left < right``
    — order-insensitive in the corpus.  Asking again for the last scan's
    ids, texts and knobs returns its pairs without rescanning.
    """
    global _last_scan
    if bands * rows != num_perm:
        raise ValueError(f"bands*rows must equal num_perm ({bands}*{rows} != {num_perm})")
    ids = [_doc_id(doc, index) for index, doc in enumerate(docs)]
    texts = [_doc_text(doc) for doc in docs]
    scan_key = _scan_key(ids, texts, (num_perm, bands, rows, shingle_n, dual))
    last_key, last_pairs, _, _ = _last_scan
    if scan_key == last_key:
        return list(last_pairs)
    # Each distinct text is canonicalised and shingled here, once, for all tiers.
    sketches = document_sketches(texts, shingle_n)

    pairs: set[tuple] = set()

    # Tier 1: exact content digests.
    by_digest: dict[str, set] = {}
    for doc_id, sketch in zip(ids, sketches):
        by_digest.setdefault(sketch.digest, set()).add(doc_id)
    _bucket_pairs(by_digest.values(), pairs)

    # Tiers 2 + 3: LSH banding per canonicaliser.
    params = minhash_params(num_perm)
    tiers = [[sketch.simple_ids for sketch in sketches]]
    if dual:
        tiers.append([sketch.knowledge_ids for sketch in sketches])
    for id_rows in tiers:
        signatures = minhash_signatures_many(id_rows, params.a, params.b)
        doc_keys = band_keys_many(signatures, bands, rows)
        buckets: dict[str, set] = {}
        for doc_id, keys in zip(ids, doc_keys):
            for key in keys:
                buckets.setdefault(key, set()).add(doc_id)
        _bucket_pairs(buckets.values(), pairs)

    ordered = sorted(pairs)
    paired = {doc_id for pair in ordered for doc_id in pair}
    knowledge_ids = {
        text: sketch.knowledge_ids
        for doc_id, text, sketch in zip(ids, texts, sketches)
        if doc_id in paired
    }
    _last_scan = (scan_key, tuple(ordered), shingle_n, knowledge_ids)
    return ordered


def _pair_knowledge_ids(left: str, right: str, shingle_n: int) -> tuple[memoryview, memoryview]:
    """Both sides' knowledge-form shingle ids: the last scan's, else sketched here."""
    _, _, scan_n, scanned = _last_scan
    if scan_n == shingle_n and left in scanned and right in scanned:
        return scanned[left], scanned[right]
    # A pair the last scan did not propose (a resumed run, another corpus
    # scanned since): the same values, computed for this pair alone.
    left_sketch, right_sketch = document_sketches((left, right), shingle_n)
    return left_sketch.knowledge_ids, right_sketch.knowledge_ids


def candidate_pair_records(docs: Sequence[Any], pairs: Sequence[tuple]) -> list[dict]:
    """Materialise id pairs as the ``{"left", "right"}`` dicts the verifier renders."""
    by_id = {_doc_id(doc, index): doc for index, doc in enumerate(docs)}
    return [{"left": by_id[a], "right": by_id[b]} for a, b in pairs]


def _width(operator: LogicalOperator, key: str, default: int) -> int:
    """An n-gram width param; below 1 it would window nothing (or junk)."""
    width = int(operator.params.get(key, default))
    if width < 1:
        raise CompileError(
            f"operator {operator.name!r}: {key} must be at least 1, got {width}"
        )
    return width


def _dedup_candidates_factory(
    operator: LogicalOperator, context: CompilerContext
) -> Module:
    params = operator.params
    config = {
        "num_perm": int(params.get("num_perm", DEDUP_NUM_PERM)),
        "bands": int(params.get("bands", DEDUP_BANDS)),
        "rows": int(params.get("rows", DEDUP_ROWS)),
        "shingle_n": _width(operator, "shingle_n", DEDUP_SHINGLE_N),
        "dual": bool(params.get("dual", True)),
    }
    if config["bands"] * config["rows"] != config["num_perm"]:
        raise CompileError(
            f"operator {operator.name!r}: bands*rows must equal num_perm "
            f"({config['bands']}*{config['rows']} != {config['num_perm']})"
        )
    emit = params.get("emit", "records")
    if emit not in ("records", "ids"):
        raise CompileError(
            f"operator {operator.name!r}: emit must be 'records' or 'ids', got {emit!r}"
        )

    def candidates(docs: Any) -> list:
        corpus = list(docs)
        pairs = dedup_candidate_pairs(corpus, **config)
        if emit == "ids":
            return [{"a": a, "b": b} for a, b in pairs]
        return candidate_pair_records(corpus, pairs)

    return CorpusKernelModule(
        f"{operator.name}_kernel",
        candidates,
        "exact-digest + dual-pass MinHash/LSH duplicate candidate generation",
        identity={**config, "emit": emit},
    )


# ---------------------------------------------------------------------------
# Quality filter (rule / LLM classifier cascade)
# ---------------------------------------------------------------------------


def render_document(value: Any) -> str:
    """Render one document as the labelled JSON line the quality skill parses."""
    return encode_payload(value if isinstance(value, dict) else {"text": str(value)})


def _quality_rule(doc: Any) -> float:
    return rule_quality_score(_doc_text(doc))


def _quality_filter_factory(
    operator: LogicalOperator, context: CompilerContext
) -> Module:
    params = operator.params
    rendered_examples = [
        (render_document(doc).replace("\n", "  "), "Yes" if label else "No")
        for doc, label in params.get("examples", [])
    ]
    teacher = LLMModule(
        name=f"{operator.name}_teacher",
        service=context.service,
        task_description=(
            "Document quality filtering for a training corpus: decide whether "
            "the following document is high-quality prose worth keeping. "
            "Answer Yes or No."
        ),
        parser=parse_yes_no,
        render=render_document,
        payload_label="Document",
        examples=rendered_examples,
        purpose=params.get("purpose", f"{operator.name}-quality"),
    )
    cascade = CascadeModule(
        name=f"{operator.name}_cascade",
        rule=_quality_rule,
        teacher=teacher,
        lower=QUALITY_RULE_LOWER,
        upper=QUALITY_RULE_UPPER,
        rule_tag="quality-rules-v1",
        out_key=params.get("out_key", "keep"),
    )
    return _maybe_map(cascade, operator)


# ---------------------------------------------------------------------------
# Decontamination (n-gram scan cascade + per-item LLM adjudication)
# ---------------------------------------------------------------------------


def eval_items_fingerprint(eval_items: Sequence[str]) -> str:
    """Short stable identity of a held-out eval set (for plan fingerprints)."""
    return f"{stable_hash('decontam-eval', *eval_items):012x}"


def _decontaminate_factory(
    operator: LogicalOperator, context: CompilerContext
) -> Module:
    params = operator.params
    eval_items = list(params.get("eval_items", ()))
    if not eval_items:
        raise CompileError(
            f"operator {operator.name!r}: decontaminate requires a non-empty "
            "'eval_items' param (the held-out benchmark sentences)"
        )
    hard_n, soft_n = DECONTAM_HARD_N, DECONTAM_SOFT_N
    hard_index = build_ngram_index(eval_items, hard_n)
    soft_index = build_ngram_index(eval_items, soft_n)

    def rule(doc: Any) -> float:
        tier = overlap_tier(
            _doc_text(doc), hard_index, soft_index, hard_n=hard_n, soft_n=soft_n
        )
        # 1.0: a verbatim leak, flagged without consulting the LLM; 0.0: no
        # overlap at all, clean for free; 0.5: soft echoes only — adjudicate.
        return (0.0, 0.5, 1.0)[tier]

    def render(doc: Any) -> str:
        # Only gray-zone documents escalate, and they have a soft hit.
        scan = overlap_profile(
            _doc_text(doc), hard_index, soft_index, hard_n=hard_n, soft_n=soft_n
        )
        assert scan.best_item >= 0, "rendered a document with no soft hit"
        return f"{render_document(doc)}\nBenchmark: {eval_items[scan.best_item]}"

    rendered_examples = [
        (
            f"{render_document(doc)}  Benchmark: {item}".replace("\n", "  "),
            "Yes" if label else "No",
        )
        for doc, item, label in params.get("examples", [])
    ]
    teacher = LLMModule(
        name=f"{operator.name}_teacher",
        service=context.service,
        task_description=(
            "Decontamination: decide whether the document leaks the held-out "
            "benchmark evaluation item shown (verbatim or lightly reworded). "
            "Answer Yes or No."
        ),
        parser=parse_yes_no,
        render=render,
        payload_label="Document",
        examples=rendered_examples,
        purpose=params.get("purpose", f"{operator.name}-decontam"),
    )
    cascade = CascadeModule(
        name=f"{operator.name}_cascade",
        rule=rule,
        teacher=teacher,
        lower=0.25,
        upper=0.75,
        rule_tag=(
            f"decontam-v1:h{hard_n}s{soft_n}:{eval_items_fingerprint(eval_items)}"
        ),
        out_key=params.get("out_key", "contaminated"),
    )
    return _maybe_map(cascade, operator)


# ---------------------------------------------------------------------------
# Dedup pair verification (reuses the entity-match prompt machinery)
# ---------------------------------------------------------------------------

#: Task card of the candidate-pair verifier: the ``match_entities`` factory
#: builds the matcher from this via :func:`make_pair_matcher`, and the
#: wording carries the duplicate-record framing the simulated provider's
#: entity-matching skill keys on.
DEDUP_VERIFY_TASK = (
    "Corpus deduplication: determine if the following two documents are "
    "duplicate records of the same underlying document (one may be a "
    "lightly reworded or damaged copy). Answer Yes or No."
)

#: Knowledge-canonical Jaccard band of the verification cascade.  Calibrated
#: on the synthetic corpus: candidate pairs below the band are bucket
#: coincidences (shared boilerplate sentences), pairs above it are safe
#: duplicates, and the band itself — disguised near-duplicates vs the
#: hardest negatives — is exactly where a fixed similarity threshold is
#: fragile and the LLM adjudicates.
DEDUP_VERIFY_LOWER = 0.30
DEDUP_VERIFY_UPPER = 0.75


def _pair_sides(pair: Any) -> tuple[Any, Any]:
    if isinstance(pair, dict) and "left" in pair and "right" in pair:
        return pair["left"], pair["right"]
    if isinstance(pair, (tuple, list)) and len(pair) == 2:
        return pair[0], pair[1]
    raise TypeError(f"cannot interpret {pair!r} as a record pair")


def _match_cascade_factory(
    operator: LogicalOperator, context: CompilerContext
) -> Module:
    """``match_entities`` with ``impl="cascade"``: similarity rung + LLM.

    The free rung scores each candidate pair by exact Jaccard over
    knowledge-canonical shingles (the same normalisation the columnar
    similarity stack vectorises) and answers pairs outside its uncertainty
    band without a provider call; only the band escalates to the per-pair
    LLM matcher.  Besides cost, this *narrows the provider's noise
    exposure* to the pairs where its judgement genuinely beats a threshold.
    """
    from repro.core.compiler.registry import make_pair_matcher

    params = operator.params
    shingle_n = _width(operator, "shingle_n", DEDUP_SHINGLE_N)

    def rule(pair: Any) -> float:
        left, right = _pair_sides(pair)
        return exact_jaccard(
            *_pair_knowledge_ids(_doc_text(left), _doc_text(right), shingle_n)
        )

    teacher = make_pair_matcher(
        f"{operator.name}_teacher",
        context,
        task=params.get("task", DEDUP_VERIFY_TASK),
        examples=params.get("examples"),
        purpose=params.get("purpose", f"{operator.name}-verify"),
    )
    cascade = CascadeModule(
        name=f"{operator.name}_cascade",
        rule=rule,
        teacher=teacher,
        lower=DEDUP_VERIFY_LOWER,
        upper=DEDUP_VERIFY_UPPER,
        rule_tag=f"pair-jaccard-v1:n{shingle_n}",
    )
    return _maybe_map(cascade, operator)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

register_strategy(
    "dedup_candidates", "custom", _dedup_candidates_factory, default=True
)
register_strategy("quality_filter", "llm", _quality_filter_factory, default=True)
register_strategy("decontaminate", "llm", _decontaminate_factory, default=True)
# An additional strategy for the existing match_entities kind: cascade
# verification (similarity rung + LLM for the uncertainty band).
register_strategy("match_entities", "cascade", _match_cascade_factory)
