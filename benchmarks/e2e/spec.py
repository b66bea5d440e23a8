"""What the benchmark runs and reports: sizes, workloads, metric declarations.

Everything a later PR is judged against is fixed here — workload sizes,
metric names, units, directions and regression bounds — and the root
``BENCHMARK.json`` is rendered from this module (:func:`benchmark_json`), so
the two cannot drift.  Sizes are constants; ``--smoke`` swaps in the small
table for the tests and never writes results anywhere durable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "RUN_SECONDS",
    "MIN_RUNS",
    "SETUP_REPEATS_MIN",
    "SETUP_REPEATS_MAX",
    "SETUP_SECONDS",
    "TRACE_BASELINE_RUNS",
    "SIZES",
    "WORKLOADS",
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "Metric",
    "benchmark_json",
]

#: Seconds one invocation spends on measured runs (the contract's run_seconds).
#: More seconds are more runs under each median, and a steadier one; 114
#: invocations must fit the driver's 3420 s, and on a slow day one takes 18-27 s
#: with this (set-up included), which leaves a quarter of the cap as margin.
RUN_SECONDS = 12
#: Every workload gets at least this many measured runs, whatever the clock says.
MIN_RUNS = 5
#: Set-up passes per invocation: at least MIN, then more while they have taken
#: less than SETUP_SECONDS in all, at most MAX.  ``setup_s`` is their median; a
#: cheap set-up gets more passes because two make a poor median, a dear one
#: gets two because the driver's time cap must hold on a slow day.
SETUP_REPEATS_MIN = 2
SETUP_REPEATS_MAX = 4
SETUP_SECONDS = 3
#: Untraced runs a ``--trace 1`` invocation makes to measure tracing overhead.
TRACE_BASELINE_RUNS = 2

#: Fixed workload sizes.  The issue sized the workloads at 3-14 s a run; the
#: contract's cap (114 invocations, set-up included, in 3420 s) leaves ~30 s
#: an invocation, and the simulator's recording pass alone costs 1.2 ms a
#: pair, so every workload is cut to ~1-1.5 s a run with its shape kept.
SIZES: dict[str, dict[str, dict]] = {
    "full": {
        # cache_entries < pairs keeps the issue's "more distinct prompts than
        # the LRU holds" (12 000 vs 10 000 there), so evictions stay > 0.
        "er_stream_cold": {"pairs": 2400, "cache_entries": 2000, "chunk": 200, "window": 8},
        "er_stream_warm": {"pairs": 600, "chunk": 200, "window": 8},
        "er_batch_latency": {"pairs": 1500, "chunk": 25, "workers": 2, "sleep_ms": 40},
        "curation_batch": {"dedup_docs": 160, "flag_docs": 500},
        "serve_fleet": {
            "jobs": 24, "tenants": 4, "clients": 2, "pool": 2,
            "imputation": {"n_train": 6, "n_test": 32},
            "names": {"n_documents": 24},
            "er": {"name": "beer", "n_entities": 60},
        },
    },
    "smoke": {
        "er_stream_cold": {"pairs": 150, "cache_entries": 125, "chunk": 50, "window": 8},
        "er_stream_warm": {"pairs": 40, "chunk": 20, "window": 8},
        "er_batch_latency": {"pairs": 75, "chunk": 25, "workers": 2, "sleep_ms": 40},
        "curation_batch": {"dedup_docs": 24, "flag_docs": 30},
        "serve_fleet": {
            "jobs": 6, "tenants": 2, "clients": 2, "pool": 2,
            "imputation": {"n_train": 4, "n_test": 8},
            "names": {"n_documents": 6},
            "er": {"name": "beer", "n_entities": 12},
        },
    },
}

#: name -> (what is compared with the set-up pass, why the workload exists).
WORKLOADS: dict[str, tuple[str, str]] = {
    "er_stream_cold": (
        "report",
        "2400 distinct ER prompts streamed through a durable ledger and a 2000-entry "
        "cache journal: engine, service and the cache/ledger write path work, the provider does not",
    ),
    "er_stream_warm": (
        "outputs",
        "600 ER pairs answered from a pre-filled cache journal, timed from cache open: "
        "the read path (journal load, seal, hits), so a write-side gain that costs reads shows",
    ),
    "er_batch_latency": (
        "report",
        "1500 ER pairs through the batch engine, 2 workers, 40 ms slept per provider round trip: "
        "only fewer or better-overlapped round trips move it, CPU savings must not",
    ),
    "curation_batch": (
        "report",
        "dedup on 160 documents, quality filter and decontamination on 500: "
        "local kernels (normalise, shingle, MinHash, candidate scan, cascade rules) do the work",
    ),
    "serve_fleet": (
        "payloads",
        "24 jobs (12 cold, then the same 12 warm) from 4 tenants through the job queue, closed loop "
        "of 2 clients, pool of 2: admission, job ledger, checkpoints, tenant cache seal, hub sharing",
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by; 0.0 = must repeat exactly
    bound: float = 0.0
    #: workloads that report it (empty = all)
    only: tuple[str, ...] = ()
    #: listed under ``end_to_end`` in BENCHMARK.json (those must be reported,
    #: non-zero, by every workload; the others are printed by the full command
    #: and checked by ``--check-noise``)
    contract: bool = False


END_TO_END: list[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, contract=True),
    Metric("wall_s", "s", "lower", 0.25, contract=True),
    Metric("records_per_s", "1/s", "higher", 0.25, contract=True),
    Metric("provider_calls", "count", "lower"),
    Metric("cost_usd", "usd", "lower"),
    Metric("quality_f1", "ratio", "higher", 0.15, contract=True),
    Metric("failed_share", "ratio", "lower"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, contract=True),
    Metric("jobs_per_s", "1/s", "higher", 0.25, only=("serve_fleet",)),
    Metric("job_p50_s", "s", "lower", 0.25, only=("serve_fleet",)),
    Metric("job_p90_s", "s", "lower", 0.25, only=("serve_fleet",)),
]

_S, _N, _B, _R = "s", "count", "bytes", "ratio"
_LOW, _HIGH = "lower", "higher"

#: Layers that own spans (a span's layer is its name up to the first dot).
#: Each reports ``<layer>.self_s``; with ``trace.unattributed_share`` and
#: ``trace.overlap_s`` they add up to the traced wall.
LAYERS = (
    "datasets", "compiler", "tasks", "modules", "curation", "workqueue", "plan",
    "scheduler", "checkpoint", "service", "cache", "provider", "report", "serve",
)

#: (name, unit, better).  Every workload prints every one; a layer a workload
#: does not enter reads 0.
PER_LAYER: list[tuple[str, str, str]] = [
    *((f"{layer}.self_s", _S, _LOW) for layer in LAYERS),
    ("datasets.source_s", _S, _LOW), ("datasets.records", _N, _LOW),
    ("compiler.instantiate_s", _S, _LOW), ("compiler.compile_s", _S, _LOW),
    ("modules.runs", _N, _LOW), ("modules.render_s", _S, _LOW),
    ("modules.prompts", _N, _LOW), ("modules.prompt_bytes_mean", _B, _LOW),
    ("modules.escalation_ratio", _R, _LOW),
    ("workqueue.shards", _N, _LOW),
    ("workqueue.ledger_append_s", _S, _LOW), ("workqueue.ledger_bytes", _B, _LOW),
    ("workqueue.spill_peak_bytes", _B, _LOW), ("workqueue.sink_s", _S, _LOW),
    ("scheduler.chunks", _N, _LOW),
    ("checkpoint.append_s", _S, _LOW), ("checkpoint.appends", _N, _LOW),
    ("checkpoint.close_s", _S, _LOW), ("checkpoint.bytes", _B, _LOW),
    ("service.calls", _N, _LOW),
    ("service.coalesced_calls", _N, _LOW), ("service.prime_batches", _N, _LOW),
    ("service.cost_usd", "usd", _LOW),
    ("cache.open_s", _S, _LOW),
    ("cache.seal_s", _S, _LOW), ("cache.seals", _N, _LOW),
    ("cache.key_s", _S, _LOW), ("cache.get_s", _S, _LOW), ("cache.gets", _N, _LOW),
    ("cache.hit_ratio", _R, _HIGH), ("cache.put_s", _S, _LOW), ("cache.puts", _N, _LOW),
    ("cache.journal_append_s", _S, _LOW), ("cache.journal_bytes", _B, _LOW),
    ("cache.evictions", _N, _LOW),
    ("provider.calls", _N, _LOW), ("provider.round_trips", _N, _LOW),
    ("provider.batch_mean", _N, _HIGH), ("provider.busy_s", _S, _LOW),
    ("provider.overlap", _R, _HIGH), ("provider.tape_misses", _N, _LOW),
    ("text.normalize_s", _S, _LOW), ("text.canonical_s", _S, _LOW),
    ("text.shingle_s", _S, _LOW), ("text.quality_s", _S, _LOW),
    ("text.overlap_s", _S, _LOW), ("text.sample", _N, _LOW),
    ("columnar.minhash_s", _S, _LOW), ("columnar.band_keys_s", _S, _LOW),
    ("curation.scans", _N, _LOW),
    ("curation.candidate_scan_s", _S, _LOW), ("curation.candidate_pairs", _N, _LOW),
    ("tasks.dedup_s", _S, _LOW), ("tasks.quality_s", _S, _LOW),
    ("tasks.decontam_s", _S, _LOW),
    ("report.canonical_s", _S, _LOW), ("report.bytes", _B, _LOW),
    ("serve.submit_s", _S, _LOW),
    ("serve.queue_wait_s", _S, _LOW), ("serve.run_s", _S, _LOW),
    ("serve.transition_s", _S, _LOW), ("serve.service_for_job_s", _S, _LOW),
    ("serve.ledger_bytes", _B, _LOW), ("serve.hub_shared", _N, _HIGH),
    ("serve.refusals", _N, _LOW), ("serve.audit_violations", _N, _LOW),
    ("serve.jobs_per_s", "1/s", _HIGH), ("serve.job_p50_s", _S, _LOW),
    ("serve.job_p90_s", _S, _LOW),
    ("trace.wall_s", _S, _LOW), ("trace.spans", _N, _LOW),
    ("trace.overhead_share", _R, _LOW), ("trace.unattributed_share", _R, _LOW),
    ("trace.overlap_s", _S, _LOW), ("trace.imbalance_share", _R, _LOW),
]


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, in the schema the driver checks."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (_, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.contract
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
