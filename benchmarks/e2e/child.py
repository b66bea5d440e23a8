"""Set-up passes and measured runs, each in a process of its own.

``setup`` is one pass per interpreter.  ``run`` and ``trace`` start one
interpreter that loads the tape, makes the untimed warm-up pass and the
inputs, and then **forks once per run**: every run starts from the same
copy-on-write image, so ``ru_maxrss`` belongs to that run and no memo,
``lru_cache`` or tenant cache survives from one repetition to the next,
while the interpreter start, the imports and the tape load (0.6-0.8 s, more
than a run of the smallest workload) are paid once per invocation and not
once per run.  The forking process is single-threaded (checked), and runs
are strictly one after another.

Every timed interval runs under a :class:`benchmarks.e2e.calibrate.HostSampler`
and is reported in calibrated seconds beside the raw ones - except traced
runs (their spans would swallow the ticks; per-layer seconds are raw) and the
workload that sleeps for its provider, whose wall is not the host's to slow.

Layout under ``--workdir``: the set-up pass leaves ``tape.json``,
``reference.json`` and ``setup/`` (holding the filled ``cache.jsonl`` the
warm workload opens); a run works in a scratch directory of its own and
removes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from benchmarks.e2e.calibrate import HostSampler
from benchmarks.e2e.replay import ReplayProvider, Tape, TapeRecorder
from benchmarks.e2e.spec import SIZES
from benchmarks.e2e.workloads import WORKLOAD_CLASSES, warm_up

# What of a run's outcome is compared, or reported, by the parent.
_KEPT = (
    "records", "jobs", "report_digest", "outputs_digest", "cost", "quarantined",
    "failed_records", "failed_jobs", "errors", "latencies", "refusals",
    "audit_violations",
)


def _setup(workload, workdir: Path, seed: int) -> dict:
    with HostSampler() as host:
        started = time.perf_counter()
        recorder = TapeRecorder()
        warm_up(recorder, seed)
        inputs = workload.inputs()
        rundir = workdir / "setup"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        before = recorder.calls
        outcome = workload.run(recorder, rundir, inputs=inputs)
        reference = {key: outcome[key] for key in _KEPT if key in outcome}
        reference["f1"] = workload.score(outcome)
        reference["provider_calls"] = recorder.calls - before
        recorder.tape.save(workdir / "tape.json")
        (workdir / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
        raw = time.perf_counter() - started
    return {"setup_s": host.calibrated(raw), "setup_raw_s": raw, "host_speed": host.speed,
            "tape_entries": len(recorder.tape)}


def _run(workload, workdir: Path, seed: int, tape: Tape, inputs, traced: bool,
         results: Path | None) -> dict:
    """One run, in the forked process."""
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
    if workload.name == "er_stream_warm":
        shutil.copy(workdir / "setup" / "cache.jsonl", rundir / "cache.jsonl")
    sleep = workload.sizes.get("sleep_ms", 0) / 1000.0
    provider = ReplayProvider(tape, seconds=sleep)
    tracer = None
    if traced:
        from benchmarks.e2e.trace import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    result: dict = {"records": 0}
    outcome = None
    # A run that waits on the provider's sleeps is as long on a slow host as
    # on a fast one: dividing it by the host's speed would only add noise.
    host = HostSampler() if not traced and not sleep else None
    with host or nullcontext():
        started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("run", fanout=True):
                    outcome = workload.run(provider, rundir, tracer=tracer, inputs=inputs)
            else:
                outcome = workload.run(provider, rundir, inputs=inputs)
        except Exception:  # noqa: BLE001 - a failed run is a counted result, not a crash
            result["error"] = traceback.format_exc(limit=8)
        raw = time.perf_counter() - started
    result.update(wall_s=raw, wall_raw_s=raw)
    if host is not None:
        result.update(wall_s=host.calibrated(raw), host_speed=host.speed)
    if tracer is not None:
        tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provider"] = {
        "calls": provider.calls,
        "round_trips": provider.round_trips,
        "busy_s": provider.busy_seconds,
        "tape_misses": provider.tape_misses,
    }
    if outcome is not None:
        result.update({key: outcome[key] for key in _KEPT if key in outcome})
        if host is not None and "latencies" in result:
            result["latencies"] = [
                latency / raw * result["wall_s"] for latency in result["latencies"]
            ]
        result["f1"] = workload.score(outcome)
        if tracer is not None:
            from benchmarks.e2e.layers import file_sizes, function_timings, layer_metrics
            from benchmarks.e2e.trace import summarize

            summary = summarize(tracer.spans)
            result["layers"] = layer_metrics(
                summary,
                tracer.spans,
                outcome,
                result["provider"],
                file_sizes(rundir),
                function_timings(workload),
            )
            if results is not None:
                results.mkdir(parents=True, exist_ok=True)
                tracer.dump(
                    results / f"trace_{workload.name}.jsonl",
                    f"{workload.name}:{seed}",
                )
    shutil.rmtree(rundir, ignore_errors=True)
    return result


def _measure(workload, workdir: Path, seed: int, traced: bool, results: Path | None,
             seconds: float, min_runs: int) -> dict:
    """Fork one run after another until ``seconds`` have passed (at least ``min_runs``)."""
    tape = Tape.load(workdir / "tape.json")
    warm_up(ReplayProvider(tape), seed)
    inputs = workload.inputs()
    if threading.active_count() != 1:
        raise RuntimeError("warm-up left a thread running; forking would not be safe")
    runs: list[dict] = []
    out = workdir / "forked.json"
    started = time.monotonic()
    while len(runs) < min_runs or time.monotonic() - started < seconds:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                run = _run(workload, workdir, seed, tape, inputs, traced, results)
                out.write_text(json.dumps(run), encoding="utf-8")
                status = 0
            except Exception:  # noqa: BLE001 - reported through the exit status
                traceback.print_exc()
            finally:
                # Leave without the interpreter's exit handlers: they belong
                # to the forking process.
                sys.stderr.flush()
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"run process ended with wait status {status}")
        runs.append(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
    return {"runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--results", type=Path, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-runs", type=int, default=1)
    args = parser.parse_args(argv)
    # Ephemeral ledgers and spill files must stay inside the checkout.
    tempfile.tempdir = str(args.workdir)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, SIZES[args.scale][args.workload])
    if args.mode == "setup":
        result = _setup(workload, args.workdir, args.seed)
    else:
        result = _measure(
            workload, args.workdir, args.seed, args.mode == "trace", args.results,
            args.seconds, args.min_runs,
        )
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
