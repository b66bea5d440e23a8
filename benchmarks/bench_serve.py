"""Serving-layer throughput and tail latency under a multi-tenant fleet.

One fleet — ``BENCH_SERVE_JOBS`` jobs (default 32) cycling the three demo
applications across 8 tenants — is driven through the job queue at pool
sizes 1/2/4/8, each arm on a fresh data directory (cold caches).  A final
arm resubmits the fleet warm at 8 workers: every job is answered from the
tenants' cache journals at zero provider cost.

Measured per arm: submit-to-drain wall clock, jobs/second, and per-job
submit-to-terminal latency (p50/p99) observed by one watcher thread per
job parked on the store's condition variable — no polling.

Gates are determinism-grade, not timing-grade (CI runners are noisy):
every job succeeds, admission refuses nothing, the provenance audit sees
zero cross-tenant hits at every pool size, and the warm arm pays zero
provider calls.  Two exact counts repeat run to run where wall clock does
not: each job's run journal takes one append per line it holds, less one
per operator (the commit marker rides with the operator's last chunk
line), and each queue generates each ``(task, ref)`` dataset once.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter

import pytest

from repro._jsonl import CheckpointJournal
from repro.llm.providers import SimulatedProvider
from repro.serve import JobQueue, JobSpec
from repro.serve import jobs as jobs_module

from _harness import emit, emit_json

N_JOBS = int(os.environ.get("BENCH_SERVE_JOBS", "32"))
N_TENANTS = 8
POOL_SIZES = (1, 2, 4, 8)

#: Run-journal appends per served job, by task: the header, the plan line
#: and one per chunk line; no ``op`` line costs an append of its own.
APPENDS_PER_JOB = {"imputation": 5, "names": 8, "er": 5}

TASK_CYCLE = (
    ("imputation", {"seed": 11, "n_train": 4, "n_test": 8}),
    ("names", {"seed": 3, "n_documents": 8}),
    ("er", {"name": "beer", "seed": 7, "n_entities": 12}),
)


def _spec(index: int) -> JobSpec:
    task, ref = TASK_CYCLE[index % len(TASK_CYCLE)]
    return JobSpec(
        tenant=f"tenant{index % N_TENANTS}",
        task=task,
        dataset=dict(ref),
        options={"workers": 2},
    )


def _drive_fleet(queue: JobQueue) -> dict:
    """Submit the fleet, wait for every terminal, return the measurements."""
    latencies: dict[str, float] = {}
    lock = threading.Lock()
    watchers = []
    started = time.perf_counter()

    def watch(job_id: str, submitted: float) -> None:
        record = queue.store.wait_for(job_id, timeout=600)
        assert record.status == "succeeded", (job_id, record.status, record.error)
        with lock:
            latencies[job_id] = time.perf_counter() - submitted

    for index in range(N_JOBS):
        job = queue.submit(_spec(index))
        watcher = threading.Thread(
            target=watch, args=(job.job_id, time.perf_counter()), daemon=True
        )
        watcher.start()
        watchers.append(watcher)
    for watcher in watchers:
        watcher.join(timeout=600)
        assert not watcher.is_alive(), "a watcher never saw its job finish"
    wall = time.perf_counter() - started

    ordered = sorted(latencies.values())
    return {
        "jobs": len(ordered),
        "wall_seconds": wall,
        "throughput_jobs_per_s": len(ordered) / wall,
        "p50_latency_s": ordered[len(ordered) // 2],
        "p99_latency_s": ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))],
        "refusals": queue.admission.refusals,
        "audit_violations": len(queue.audit_violations),
    }


@pytest.fixture(scope="module")
def counts() -> dict:
    """Run-journal appends per job directory over the whole sweep, and
    dataset generations per ``(task, ref)`` (the sweep clears them per queue)."""
    appends: Counter = Counter()
    generated: Counter = Counter()
    append, resolve = CheckpointJournal.append, jobs_module.resolve_dataset

    def counted_append(journal, *records):
        if journal.path.name == "checkpoint.jsonl":
            appends[journal.path.parent] += 1
        append(journal, *records)

    def counted_resolve(task, ref, probe=False):
        if not probe:
            generated[task, json.dumps(ref, sort_keys=True)] += 1
        return resolve(task, ref, probe)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CheckpointJournal, "append", counted_append)
        patch.setattr(jobs_module, "resolve_dataset", counted_resolve)
        yield {"appends": appends, "generated": generated, "tasks": {}}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory, counts) -> list[dict]:
    arms = []
    for workers in POOL_SIZES:
        counts["generated"].clear()
        provider = SimulatedProvider()
        queue = JobQueue(
            tmp_path_factory.mktemp(f"pool{workers}"),
            provider=provider,
            max_workers=workers,
        )
        arm = _drive_fleet(queue)
        arm.update(
            name=f"cold pool={workers}",
            provider_calls=provider.calls_served,
            hub_shared=queue.registry.hub.stats()["shared_calls"],
        )
        arms.append(arm)
        if workers == POOL_SIZES[-1]:
            # warm rerun on the same directory: every tenant's journal is
            # hot, so the whole fleet costs zero provider calls.
            before = provider.calls_served
            warm = _drive_fleet(queue)
            warm.update(
                name=f"warm pool={workers}",
                provider_calls=provider.calls_served - before,
                hub_shared=queue.registry.hub.stats()["shared_calls"],
            )
            arms.append(warm)
        queue.close()
        # per (task, ref), on the queue the last arm ran on
        arms[-1]["generations"] = sorted(counts["generated"].values())
        for job in queue.store.jobs():
            counts["tasks"][queue.data_dir / "jobs" / job.job_id] = job.spec.task
    return arms


def test_every_arm_drains_clean(sweep):
    for arm in sweep:
        assert arm["jobs"] == N_JOBS, arm["name"]
        assert arm["refusals"] == 0, arm["name"]
        assert arm["audit_violations"] == 0, arm["name"]


def test_cold_arms_pay_the_provider_once_per_identity(sweep):
    cold_calls = {arm["provider_calls"] for arm in sweep if arm["name"].startswith("cold")}
    # the fleet is identical in every arm, so with the hub de-duplicating
    # across tenants the provider bill is pool-size independent.
    assert len(cold_calls) == 1, cold_calls
    assert cold_calls.pop() > 0


def test_warm_arm_pays_nothing(sweep):
    warm = next(arm for arm in sweep if arm["name"].startswith("warm"))
    assert warm["provider_calls"] == 0


def test_each_queue_generates_each_dataset_once(sweep):
    for arm in sweep:
        if "generations" in arm:  # the last arm on each queue
            assert arm["generations"] == [1] * len(TASK_CYCLE), arm["name"]


def test_a_commit_costs_no_append_of_its_own(sweep, counts):
    """A job's journal holds a header, a plan line, chunk lines and one
    ``op`` line per operator; each line but the ``op`` lines costs one append."""
    assert len(counts["tasks"]) == len(sweep) * N_JOBS
    observed: dict[str, set] = {}
    for job_dir, task in counts["tasks"].items():
        journal = (job_dir / "checkpoint.jsonl").read_text("utf-8").splitlines()
        kinds = [json.loads(line)["type"] for line in journal]
        appends = counts["appends"][job_dir]
        assert appends == len(kinds) - kinds.count("op"), (job_dir, kinds)
        observed.setdefault(task, set()).add(appends)
    assert observed == {task: {appends} for task, appends in APPENDS_PER_JOB.items()}


def test_emit_report(sweep):
    lines = [
        f"serve fleet: {N_JOBS} jobs over {N_TENANTS} tenants "
        "(imputation/names/er cycle, workers=2 per job):",
        f"{'arm':>14} {'wall':>8} {'jobs/s':>7} {'p50':>7} {'p99':>7} "
        f"{'provider calls':>15} {'hub shared':>11}",
    ]
    for arm in sweep:
        lines.append(
            f"{arm['name']:>14} {arm['wall_seconds']:>7.2f}s "
            f"{arm['throughput_jobs_per_s']:>7.1f} {arm['p50_latency_s']:>6.2f}s "
            f"{arm['p99_latency_s']:>6.2f}s {arm['provider_calls']:>15} "
            f"{arm['hub_shared']:>11}"
        )
    lines.append(
        "zero refusals and zero cross-tenant cache hits at every pool size; "
        "warm fleet pays zero provider calls"
    )
    emit("serve", "\n".join(lines))
    emit_json("serve", [{**arm, "cost": None} for arm in sweep])
