"""All five workloads end to end at toy sizes, through the real command line."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import spec

ROOT = Path(__file__).resolve().parents[3]


def _bench(*args):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )


def test_smoke_runs_every_workload_and_prints_every_metric(tmp_path):
    history = ROOT / "benchmarks" / "e2e" / "results" / "history.jsonl"
    before = history.read_bytes() if history.exists() else None
    manifest = (ROOT / "BENCHMARK.json").read_bytes()
    started = time.monotonic()
    done = _bench("--seed", "5", "--results", str(tmp_path))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60
    assert "MISMATCH" not in done.stdout
    sections = re.split(r"\n== (\w+)  ", done.stdout)
    assert sections[1::2] == list(spec.WORKLOADS)
    for workload, body in zip(sections[1::2], sections[2::2]):
        for metric in spec.END_TO_END:
            if metric.only and workload not in metric.only:
                continue
            assert re.search(
                rf"^  {re.escape(metric.name)} +\S+ {re.escape(metric.unit)} ", body, re.M
            ), (workload, metric.name)
        for name, unit, _ in spec.PER_LAYER:
            assert re.search(
                rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", body, re.M
            ), (workload, name)
        assert re.search(r"^  failed_share +0 ratio", body, re.M), workload
        # the trace of each workload accounts for its own wall
        imbalance = float(re.search(r"trace\.imbalance_share +(\S+)", body).group(1))
        assert imbalance <= 0.02, workload
        assert (tmp_path / f"trace_{workload}.jsonl").stat().st_size > 0
    # smoke numbers go nowhere durable
    assert (ROOT / "BENCHMARK.json").read_bytes() == manifest
    assert (history.read_bytes() if history.exists() else None) == before
    assert not (tmp_path / "history.jsonl").exists()


def test_driver_call_ends_with_the_contract_json(tmp_path):
    wanted = {
        "0": {m.name: m.unit for m in spec.END_TO_END if m.contract},
        "1": {name: unit for name, unit, _ in spec.PER_LAYER},
    }
    for trace, metrics in wanted.items():
        done = _bench("--workload", "er_batch_latency", "--seed", "11", "--seconds", "0",
                      "--trace", trace, "--results", str(tmp_path))
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            # 75 pairs in chunks of 25: three slept round trips, overlapped by 2 workers
            assert result["metrics"]["provider.round_trips"]["value"] == 3
            assert result["metrics"]["provider.tape_misses"]["value"] == 0
