"""Per-layer metrics: span aggregates, counters, and function-only timings.

Layers that have an object boundary are measured by the spans of
:mod:`benchmarks.e2e.trace`.  Layers that are plain functions (``text``,
``storage.columnar``, the candidate scan, cache keys) are timed here by one
call over a sample of the workload's own inputs after the run — they say
what one pass costs, the ``tasks.*`` spans say how many passes a run pays.
"""

from __future__ import annotations

import time
from pathlib import Path

from benchmarks.e2e.spec import LAYERS, PER_LAYER

__all__ = ["SAMPLE", "function_timings", "layer_metrics", "file_sizes"]

#: Texts a function-only layer is timed over (``text.sample`` reports it).
SAMPLE = 300


def _timed(function, items) -> float:
    started = time.perf_counter()
    for item in items:
        function(item)
    return time.perf_counter() - started


def function_timings(workload) -> dict[str, float]:
    """One pass of each function-only layer over the workload's inputs."""
    from repro.llm.cache import CacheKey, key_digest
    from repro.text.normalize import normalize_text

    out: dict[str, float] = {}
    prompts = [
        key.prompt for cache in workload.caches for key, _ in cache.entries()
    ][:SAMPLE]
    texts = workload.texts()[:SAMPLE]
    out["text.sample"] = len(texts) or len(prompts)
    # The system normalises prompts (cache seal) and documents (curation).
    out["text.normalize_s"] = _timed(normalize_text, texts or prompts)
    def make_key(prompt: str) -> None:
        key = CacheKey("sim-gpt-2023", "", prompt, 256)
        hash(key)
        key_digest(key)

    out["cache.key_s"] = _timed(make_key, prompts)
    if not texts:
        return out

    from repro.core.compiler.curation import (
        DECONTAM_HARD_N,
        DECONTAM_SOFT_N,
        DEDUP_BANDS,
        DEDUP_NUM_PERM,
        DEDUP_ROWS,
        DEDUP_SHINGLE_N,
        dedup_candidate_pairs,
    )
    from repro.storage.columnar import band_keys_many, minhash_signatures_many
    from repro.text.minhash import minhash_params
    from repro.text.overlap import build_ngram_index, overlap_profile
    from repro.text.quality import rule_quality_score
    from repro.text.shingle import knowledge_canonical, shingle_ids, simple_canonical

    started = time.perf_counter()
    canonicals = [simple_canonical(text) for text in texts]
    for text in texts:
        knowledge_canonical(text)
    out["text.canonical_s"] = time.perf_counter() - started
    started = time.perf_counter()
    id_rows = [shingle_ids(canonical, DEDUP_SHINGLE_N) for canonical in canonicals]
    out["text.shingle_s"] = time.perf_counter() - started
    out["text.quality_s"] = _timed(rule_quality_score, texts)
    small, big = workload.corpora()
    eval_items = list(big.eval_set.items())
    hard = build_ngram_index(eval_items, DECONTAM_HARD_N)
    soft = build_ngram_index(eval_items, DECONTAM_SOFT_N)
    out["text.overlap_s"] = _timed(
        lambda text: overlap_profile(
            text, hard, soft, hard_n=DECONTAM_HARD_N, soft_n=DECONTAM_SOFT_N
        ),
        texts,
    )
    params = minhash_params(DEDUP_NUM_PERM)
    started = time.perf_counter()
    signatures = minhash_signatures_many(id_rows, params.a, params.b)
    out["columnar.minhash_s"] = time.perf_counter() - started
    started = time.perf_counter()
    band_keys_many(signatures, DEDUP_BANDS, DEDUP_ROWS)
    out["columnar.band_keys_s"] = time.perf_counter() - started
    records = [doc.record() for doc in small]
    started = time.perf_counter()
    pairs = dedup_candidate_pairs(records)
    out["curation.candidate_scan_s"] = time.perf_counter() - started
    out["curation.candidate_pairs"] = len(pairs)
    return out


_JOURNALS = {
    "cache.jsonl": "cache.journal_bytes",
    "ledger.jsonl": "workqueue.ledger_bytes",
    "checkpoint.jsonl": "checkpoint.bytes",
    "jobs.jsonl": "serve.ledger_bytes",
}


def file_sizes(rundir: Path) -> dict[str, int]:
    """Bytes each journal kind left under ``rundir`` (by file name)."""
    sizes = dict.fromkeys(_JOURNALS.values(), 0)
    for path in rundir.rglob("*.jsonl"):
        metric = _JOURNALS.get(path.name)
        if metric is not None:
            sizes[metric] += path.stat().st_size
    return sizes


def _serve_phases(spans: list[list]) -> tuple[float, float]:
    """``(queue wait, run)`` seconds summed over jobs, from ledger transitions."""
    submitted: dict[str, float] = {}
    running: dict[str, float] = {}
    wait = run = 0.0
    for name, start, end, _, _, note in spans:
        if name == "serve.submit" and note:
            submitted[note] = start
        elif name == "serve.transition" and note:
            job_id, status = note.split(":", 1)
            if status == "running":
                running[job_id] = start
                wait += start - submitted.get(job_id, start)
            elif job_id in running:
                run += end - running.pop(job_id)
    return wait, run


def layer_metrics(
    summary: dict,
    spans: list[list],
    outcome: dict,
    provider: dict,
    sizes: dict[str, int],
    functions: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric a traced child can compute on its own.

    (``trace.overhead_share`` and the ``serve.job_*`` latencies need the
    untraced runs; the parent adds them.)
    """
    total, count, notes = summary["total"], summary["count"], summary["notes"]
    own = summary["self"]
    wall = summary["wall"]
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(functions)
    metrics.update(sizes)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    for metric, span in (
        ("datasets.source_s", "datasets.source"),
        ("compiler.instantiate_s", "compiler.instantiate"),
        ("compiler.compile_s", "compiler.compile"),
        ("modules.render_s", "modules.render"),
        ("workqueue.ledger_append_s", "workqueue.record_shard"),
        ("workqueue.sink_s", "workqueue.sink"),
        ("checkpoint.append_s", "checkpoint.append"),
        ("checkpoint.close_s", "checkpoint.close"),
        ("cache.open_s", "cache.open"),
        ("cache.seal_s", "cache.seal"),
        ("cache.get_s", "cache.get"),
        ("cache.put_s", "cache.put"),
        ("cache.journal_append_s", "cache.journal_append"),
        ("tasks.dedup_s", "tasks.dedup"),
        ("tasks.quality_s", "tasks.quality"),
        ("tasks.decontam_s", "tasks.decontam"),
        ("report.canonical_s", "report.canonical"),
        ("serve.submit_s", "serve.submit"),
        ("serve.transition_s", "serve.transition"),
        ("serve.service_for_job_s", "serve.service_for_job"),
    ):
        metrics[metric] = total.get(span, 0.0)
    for metric, span in (
        ("datasets.records", "datasets.source"),
        ("modules.runs", "modules.run"),
        ("modules.prompts", "modules.render"),
        ("curation.scans", "curation.candidate_scan"),
        ("checkpoint.appends", "checkpoint.append"),
        ("service.calls", "service.complete"),
        ("cache.seals", "cache.seal"),
        ("cache.gets", "cache.get"),
        ("cache.puts", "cache.put"),
    ):
        metrics[metric] = count.get(span, 0)
    rendered = notes.get("modules.render", [])
    metrics["modules.prompt_bytes_mean"] = sum(rendered) / len(rendered) if rendered else 0.0
    metrics["modules.escalation_ratio"] = outcome.get("escalation_ratio", 0.0)
    metrics["workqueue.shards"] = outcome.get("shards", 0)
    metrics["workqueue.spill_peak_bytes"] = outcome.get("spill_peak_bytes", 0)
    parent_of = [span[3] for span in spans]
    names = [span[0] for span in spans]
    metrics["scheduler.chunks"] = sum(
        1
        for span_id, name in enumerate(names)
        if name == "modules.apply_chunk"
        and names[parent_of[span_id]] == "scheduler.run_operator"
    )
    metrics["service.coalesced_calls"] = outcome.get("coalesced", 0)
    metrics["service.prime_batches"] = sum(1 for n in notes.get("service.prime", []) if n)
    metrics["service.cost_usd"] = outcome.get("cost", 0.0)
    # Every answer that did not come out of the cache is put into it, so the
    # calls without a put are the hits.  (``get`` hits would read 1.0 on a cold
    # run: the chunk prefetch fills the cache just before the per-record gets.)
    calls = count.get("service.complete", 0)
    metrics["cache.hit_ratio"] = 1.0 - count.get("cache.put", 0) / calls if calls else 0.0
    metrics["cache.evictions"] = outcome.get("evictions", 0)
    metrics["provider.calls"] = provider["calls"]
    metrics["provider.round_trips"] = provider["round_trips"]
    metrics["provider.batch_mean"] = (
        provider["calls"] / provider["round_trips"] if provider["round_trips"] else 0.0
    )
    metrics["provider.busy_s"] = provider["busy_s"]
    metrics["provider.overlap"] = provider["busy_s"] / wall
    metrics["provider.tape_misses"] = provider["tape_misses"]
    metrics["report.bytes"] = sum(notes.get("report.canonical", []))
    wait, run = _serve_phases(spans)
    metrics["serve.queue_wait_s"] = wait
    metrics["serve.run_s"] = run
    metrics["serve.hub_shared"] = outcome.get("hub_shared", 0)
    metrics["serve.refusals"] = outcome.get("refusals", 0)
    metrics["serve.audit_violations"] = outcome.get("audit_violations", 0)
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = len(spans)
    metrics["trace.unattributed_share"] = summary["unattributed"] / wall
    metrics["trace.overlap_s"] = summary["overlap"]
    metrics["trace.imbalance_share"] = summary["imbalance"]
    return metrics
