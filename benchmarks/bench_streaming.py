"""Streaming execution — memory-bounded ER over an out-of-core corpus.

Runs the entity-resolution template through the streaming executor
(:meth:`LinguaManga.run_stream`) over a :class:`StreamingERCorpus` that is
never materialized: pairs are generated on demand, at most ``WINDOW``
shards wait in memory between the source and the fold, and matched
verdicts leave through a sink.  The bench records throughput per worker
count and demonstrates the tentpole's memory claim — peak residency is
O(chunk_size x window), *independent of corpus size* — by growing the
corpus 4x and watching the in-flight record high-watermark stay under
``WINDOW x CHUNK``.

``STREAM_BENCH_PAIRS`` scales the corpus (default 2 000 for CI; the
full-size run uses 1 000 000).
"""

from __future__ import annotations

import gc
import hashlib
import os
import time

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus

from _harness import emit, emit_json

PAIRS = int(os.environ.get("STREAM_BENCH_PAIRS", "2000"))
CHUNK = 200
WINDOW = 8


def rss_mb() -> float:
    """Current resident set size in MiB (0.0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_arm(n_pairs: int, workers: int) -> dict:
    gc.collect()
    corpus = StreamingERCorpus(n_pairs, seed=7)
    system = LinguaManga()
    pipeline = get_template("entity_resolution").instantiate(
        examples=corpus.examples()
    )
    matches = 0
    peak_rss = [rss_mb()]

    def sink(outputs) -> None:
        nonlocal matches
        matches += sum(1 for verdict in outputs if verdict)
        peak_rss.append(rss_mb())

    started = time.perf_counter()
    report = system.run_stream(
        pipeline,
        {"pairs": corpus.inputs()},
        workers=workers,
        chunk_size=CHUNK,
        window=WINDOW,
        source_id=corpus.fingerprint,
        sink=sink,
    )
    elapsed = time.perf_counter() - started
    summary = next(iter(report.outputs.values()))
    assert summary["records"] == n_pairs
    return {
        "pairs": n_pairs,
        "workers": workers,
        "seconds": elapsed,
        "records_per_sec": n_pairs / elapsed if elapsed > 0 else 0.0,
        "matches": matches,
        "shards": report.recovery["shards"],
        "inflight_peak_records": report.recovery["inflight_peak_records"],
        "peak_rss_mb": max(peak_rss),
        "report_sha256": hashlib.sha256(
            report.canonical_json().encode("utf-8")
        ).hexdigest(),
    }


def sweep() -> dict[str, dict]:
    arms: dict[str, dict] = {}
    for workers in (1, 2, 8):
        arms[f"{PAIRS} pairs / {workers}w"] = run_arm(PAIRS, workers)
    arms[f"{PAIRS * 4} pairs / 8w"] = run_arm(PAIRS * 4, 8)
    return arms


def render(arms: dict[str, dict]) -> str:
    header = (
        f"{'arm':>22}  {'shards':>6}  {'rec/s':>9}  "
        f"{'held peak':>10}  {'peak RSS':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, row in arms.items():
        lines.append(
            f"{name:>22}  {row['shards']:>6}  {row['records_per_sec']:>9.0f}  "
            f"{row['inflight_peak_records']:>6} rec  {row['peak_rss_mb']:>7.1f}MB"
        )
    lines.append(
        "\ninvariant: source records held by unfolded shards <= window x chunk "
        f"(= {WINDOW * CHUNK})"
        "\nas the corpus grows 4x; verdicts leave through the sink, never accumulate."
    )
    return "\n".join(lines)


def test_streaming_bench():
    arms = sweep()
    emit("streaming", render(arms))
    emit_json(
        "streaming",
        [
            {
                "name": name,
                "wall_seconds": row["seconds"],
                "records_per_sec": row["records_per_sec"],
                "shards": row["shards"],
                "inflight_peak_records": row["inflight_peak_records"],
                "peak_rss_mb": row["peak_rss_mb"],
            }
            for name, row in arms.items()
        ],
    )

    base = arms[f"{PAIRS} pairs / 8w"]
    big = arms[f"{PAIRS * 4} pairs / 8w"]
    one = arms[f"{PAIRS} pairs / 1w"]
    # The memory claim: what waits between the source and the fold is
    # bounded by the in-flight window, not the data — backpressure admits
    # at most WINDOW shards, at 1x and at 4x the corpus.  (The watermark
    # itself is scheduling-dependent — how many shards happen to be in
    # flight at once — so gate on the ceiling, not on arm-to-arm equality.)
    for arm in (base, big):
        assert 0 < arm["inflight_peak_records"] <= WINDOW * CHUNK
    assert big["shards"] == base["shards"] * 4
    # RSS stays flat too (soft gate: the meter is noisy under GC).
    if base["peak_rss_mb"] and big["peak_rss_mb"]:
        assert big["peak_rss_mb"] <= base["peak_rss_mb"] * 1.5 + 64
    # What the worker count may not change: the streamed report.
    two = arms[f"{PAIRS} pairs / 2w"]
    assert one["report_sha256"] == two["report_sha256"] == base["report_sha256"]


def test_streaming_matches_batch_verdicts():
    """The streamed sink sees exactly the batch scheduler's verdicts."""
    corpus = StreamingERCorpus(400, seed=7)
    pipeline = get_template("entity_resolution").instantiate(
        examples=corpus.examples()
    )
    streamed: list = []
    LinguaManga().run_stream(
        pipeline,
        {"pairs": corpus.inputs()},
        workers=4,
        chunk_size=50,
        source_id=corpus.fingerprint,
        sink=streamed.extend,
    )
    batch = LinguaManga().run(
        get_template("entity_resolution").instantiate(examples=corpus.examples()),
        {"pairs": list(corpus.inputs())},
        chunk_size=50,
    )
    assert streamed == next(iter(batch.outputs.values()))
