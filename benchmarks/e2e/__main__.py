"""``python -m benchmarks.e2e`` — the repo's end-to-end benchmark.

Two ways in, one machinery:

- **The one command** (``python -m benchmarks.e2e --seed 7``): for each of the
  five workloads run set-up, the measured runs and the traced runs, check
  every output against the simulator reference, print every end-to-end and
  per-layer metric with its unit, refresh ``BENCHMARK.json`` from
  :mod:`benchmarks.e2e.spec` and append one line to ``results/history.jsonl``.
  ``--check-noise`` runs the measured part twice and compares the medians
  with each metric's bound; ``--smoke`` runs everything at toy sizes.
- **The driver's call** (``--workload W --seed N --seconds S --trace 0|1``):
  one workload; the last line of stdout is the JSON object of the contract.

The parent only orchestrates: set-up passes and runs are child processes
(:mod:`benchmarks.e2e.child`), one at a time, and scratch files live under
``benchmarks/e2e/.work`` so nothing is written outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The checkout's own sources, ahead of any installed copy.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro  # noqa: E402,F401 - fail here, before any output, if src/ is missing

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.calibrate import REFERENCE_S  # noqa: E402

CHILD_TIMEOUT = 170


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, seed: int, scale: str, workdir: Path,
              *extra: str) -> dict:
    """Run one child to completion and return its result object."""
    out = workdir / f"{mode}.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e.child", mode,
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--workdir", str(workdir), "--out", str(out), *extra,
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
               TMPDIR=str(workdir))
    out.unlink(missing_ok=True)
    done = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT,
                          capture_output=True, text=True)
    if done.returncode != 0 or not out.exists():
        raise ChildFailed(f"{mode} child for {workload} failed:\n{done.stderr[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


# -- statistics ----------------------------------------------------------------------


def stat(values: list[float]) -> dict:
    """How a metric is reported: the median of an invocation's runs, with
    quartiles and count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


# -- one workload --------------------------------------------------------------------


def verify(run: dict, reference: dict, workload: str) -> dict:
    """Count a run's failed records; a wrong output fails all of them."""
    compare = spec.WORKLOADS[workload][0]
    records = reference["records"]
    problems = []
    if "error" in run:
        problems.append("raised: " + run["error"].strip().splitlines()[-1])
    elif compare == "report" and run["report_digest"] != reference["report_digest"]:
        problems.append("canonical report differs from the simulator pass")
    elif run["outputs_digest"] != reference["outputs_digest"]:
        problems.append("outputs differ from the simulator pass")
    provider = run["provider"]
    if provider["tape_misses"]:
        problems.append(f"{provider['tape_misses']} tape misses")
    if workload == "er_stream_warm" and provider["calls"]:
        problems.append(f"warm run reached the provider {provider['calls']} times")
    if run.get("refusals") or run.get("audit_violations"):
        problems.append("admission refusals or audit violations")
    if run.get("failed_jobs"):
        problems.append(f"{run['failed_jobs']} jobs did not succeed: {run.get('errors')}")
    if problems:
        failed = records
    else:
        failed = run.get("quarantined", 0) + run.get("failed_records", 0)
    return {"attempted": records, "failed": failed, "problems": problems}


def set_up(workload: str, seed: int, scale: str, workdir: Path, repeats: tuple[int, int]):
    """Set-up passes: at least ``repeats[0]``, at most ``repeats[1]``, stopping
    in between once they have taken ``spec.SETUP_SECONDS`` in all."""
    passes: list[dict] = []
    while len(passes) < repeats[0] or (
        len(passes) < repeats[1]
        and sum(p["setup_raw_s"] for p in passes) < spec.SETUP_SECONDS
    ):
        passes.append(run_child("setup", workload, seed, scale, workdir))
    reference = json.loads((workdir / "reference.json").read_text(encoding="utf-8"))
    return passes, reference


def measure(workload: str, seed: int, scale: str, workdir: Path, reference: dict,
            seconds: float, min_runs: int, mode: str = "run",
            results: Path | None = None) -> list[dict]:
    """One child forking run after run until ``seconds`` have passed (at least
    ``min_runs``); every run is checked against the reference."""
    extra = ["--seconds", str(seconds), "--min-runs", str(min_runs)]
    if results is not None:
        extra += ["--results", str(results)]
    runs = run_child(mode, workload, seed, scale, workdir, *extra)["runs"]
    for run in runs:
        run.update(verify(run, reference, workload))
    return runs


def end_to_end(workload: str, passes: list[dict], runs: list[dict]) -> dict:
    """The end-to-end table of one workload: name -> stat dict."""
    attempted = sum(run["attempted"] for run in runs)
    values = {
        "setup_s": [p["setup_s"] for p in passes],
        "wall_s": [run["wall_s"] for run in runs],
        "records_per_s": [run["attempted"] / run["wall_s"] for run in runs],
        "provider_calls": [run["provider"]["calls"] for run in runs],
        "cost_usd": [run.get("cost", 0.0) for run in runs],
        "quality_f1": [run.get("f1", 0.0) for run in runs],
        "failed_share": [sum(run["failed"] for run in runs) / attempted],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    if workload == "serve_fleet":
        values["jobs_per_s"] = [run.get("jobs", 0) / run["wall_s"] for run in runs]
    table = {name: stat(series) for name, series in values.items()}
    if workload == "serve_fleet":
        table.update(job_latencies(runs))
    # What the calibrated seconds were made from (see calibrate.py).
    table["raw"] = {
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in passes),
        "wall_raw_s": statistics.median(run["wall_raw_s"] for run in runs),
        "host_speed": statistics.median(
            [p["host_speed"] for p in passes]
            + [run["host_speed"] for run in runs if "host_speed" in run]
        ),
    }
    return table


def job_latencies(runs: list[dict]) -> dict:
    """Submit-to-terminal latency pooled over runs: p50, and p90 as the highest
    percentile that keeps ten samples beyond it at five runs of 24 jobs."""
    pool = [latency for run in runs for latency in run.get("latencies", [])]
    if not pool:
        return {}
    p50, p90 = percentile(pool, 0.5), percentile(pool, 0.9)
    return {
        "job_p50_s": {"value": p50, "q1": percentile(pool, 0.25),
                      "q3": percentile(pool, 0.75), "n": len(pool)},
        "job_p90_s": {"value": p90, "q1": p90, "q3": p90, "n": len(pool)},
    }


def per_layer(workload: str, baseline: list[dict], traced: list[dict]) -> dict:
    """Median of each layer metric over the traced runs, plus what needs the
    untraced runs: tracing overhead and the job latencies."""
    layered = [run["layers"] for run in traced if "layers" in run]
    table = {}
    for name, _, _ in spec.PER_LAYER:
        values = [layers.get(name, 0.0) for layers in layered]
        table[name] = statistics.median(values) if values else 0.0
    untraced = statistics.median(run["wall_raw_s"] for run in baseline)
    table["trace.overhead_share"] = (table["trace.wall_s"] - untraced) / untraced
    if workload == "serve_fleet":
        latencies = job_latencies(baseline)
        table["serve.job_p50_s"] = latencies["job_p50_s"]["value"]
        table["serve.job_p90_s"] = latencies["job_p90_s"]["value"]
        table["serve.jobs_per_s"] = statistics.median(
            run.get("jobs", 0) / run["wall_s"] for run in baseline
        )
    return table


# -- reporting -----------------------------------------------------------------------


def _bound(metric: spec.Metric) -> str:
    return f"{metric.bound:.0%}" if metric.bound else "exact"


def print_end_to_end(workload: str, table: dict, sizes: dict) -> None:
    print(f"\n== {workload}  {json.dumps(sizes, sort_keys=True)}")
    for metric in spec.END_TO_END:
        if metric.name not in table:
            continue
        s = table[metric.name]
        print(f"  {metric.name:<16} {s['value']:>14.6g} {metric.unit:<6} "
              f"[median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]  "
              f"{metric.better} is better, bound {_bound(metric)}")
    raw = table["raw"]
    print(f"  (uncalibrated medians: setup {raw['setup_raw_s']:.6g} s, wall "
          f"{raw['wall_raw_s']:.6g} s; host speed {raw['host_speed']:.3f} x "
          f"{REFERENCE_S} s a unit)")


def print_per_layer(workload: str, table: dict) -> None:
    print(f"\n-- layers of {workload} (traced run)")
    units = {name: unit for name, unit, _ in spec.PER_LAYER}
    for name, value in table.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")


def provenance() -> dict:
    def git(*args: str) -> str:
        try:
            return subprocess.run(("git", *args), cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else ""
    return {
        "commit": commit or "unknown",
        "dirty": bool(git("status", "--porcelain", "--", "src")) if commit else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def append_history(results: Path, entry: dict) -> None:
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


# -- modes ---------------------------------------------------------------------------


def bench(workloads: list[str], args, workroot: Path, trace: bool, measured: bool):
    """Set-up, measured runs and/or traced runs of each workload."""
    tables, layers, totals = {}, {}, {"attempted": 0, "failed": 0, "problems": []}
    min_runs = 2 if args.smoke else spec.MIN_RUNS
    repeats = (
        (1, 1) if args.smoke or not measured
        else (spec.SETUP_REPEATS_MIN, spec.SETUP_REPEATS_MAX)
    )
    for workload in workloads:
        workdir = workroot / workload
        workdir.mkdir(parents=True)
        passes, reference = set_up(workload, args.seed, args.scale, workdir, repeats)
        # A traced-only invocation still makes a few untraced runs: the
        # baseline of ``trace.overhead_share`` and of the job latencies.
        seconds, floor = (
            (args.seconds, min_runs) if measured
            else (0, 1 if args.smoke else spec.TRACE_BASELINE_RUNS)
        )
        runs = measure(workload, args.seed, args.scale, workdir, reference, seconds, floor)
        if measured:
            tables[workload] = end_to_end(workload, passes, runs)
        if trace:
            seconds = 0 if measured else args.seconds - sum(r["wall_raw_s"] for r in runs)
            traced = measure(workload, args.seed, args.scale, workdir, reference,
                             seconds, 1, mode="trace", results=args.results)
            layers[workload] = per_layer(workload, runs, traced)
            runs = runs + traced
        for run in runs:
            totals["attempted"] += run["attempted"]
            totals["failed"] += run["failed"]
            totals["problems"] += [f"{workload}: {p}" for p in run["problems"]]
        shutil.rmtree(workdir, ignore_errors=True)
    return tables, layers, totals


def check_noise(first: dict, second: dict) -> bool:
    """Two sets of runs of the same code must agree within each metric's bound."""
    agreed = True
    print("\n== noise check: two sets of runs of the same code")
    for workload in first:
        for metric in spec.END_TO_END:
            if metric.name not in first[workload]:
                continue
            a = first[workload][metric.name]["value"]
            b = second[workload][metric.name]["value"]
            spread = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            ok = spread <= metric.bound
            agreed &= ok
            print(f"  {workload:<18} {metric.name:<16} {a:>12.6g} {b:>12.6g}  "
                  f"spread {spread:6.2%}  bound {_bound(metric):<6} {'ok' if ok else 'FAIL'}")
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds of measured runs per workload (default {spec.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, two runs; writes nothing durable")
    parser.add_argument("--check-noise", action="store_true")
    parser.add_argument("--results", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    args.scale = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec.RUN_SECONDS
    if args.smoke and args.results == HERE / "results":
        args.results = None  # smoke spans go nowhere unless a directory is named
    driver = args.workload is not None and args.trace is not None
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)

    (HERE / ".work").mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix="bench-", dir=HERE / ".work"))
    try:
        trace = args.trace == 1 if driver else not args.check_noise
        measured = not driver or args.trace == 0
        tables, layers, totals = bench(workloads, args, workroot, trace, measured)
        agreed = True
        if args.check_noise:
            again, _, more = bench(workloads, args, workroot / "again", False, True)
            for key in totals:
                totals[key] += more[key]
            agreed = check_noise(tables, again)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    sizes = spec.SIZES[args.scale]
    for workload in workloads:
        if workload in tables:
            print_end_to_end(workload, tables[workload], sizes[workload])
        if workload in layers:
            print_per_layer(workload, layers[workload])
    for problem in totals["problems"]:
        print("MISMATCH", problem)
    correct = totals["failed"] == 0 and not totals["problems"]

    if not args.smoke:
        append_history(args.results, {
            **provenance(), "seed": args.seed, "seconds": args.seconds,
            "sizes": {w: sizes[w] for w in workloads}, "correct": correct,
            "end_to_end": tables, "per_layer": layers,
        })
        if args.workload is None:
            (ROOT / "BENCHMARK.json").write_text(
                json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8"
            )
    if driver:
        if args.trace == 0:
            metrics = {m.name: {"value": tables[args.workload][m.name]["value"],
                                "unit": m.unit}
                       for m in spec.END_TO_END if m.contract}
        else:
            metrics = {name: {"value": layers[args.workload][name], "unit": unit}
                       for name, unit, _ in spec.PER_LAYER}
        print(json.dumps({"correct": correct, "attempted": totals["attempted"],
                          "failed": totals["failed"], "metrics": metrics}))
    return 0 if correct and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
