"""Concurrency/chaos stress suite for the serving layer (tier 2).

The scenario the service exists to survive, end to end:

1. **Flood**: ``SERVE_CHAOS_JOBS`` jobs (default 100) across 8 tenants,
   8 pool workers, every job wrapped in its own seeded
   :class:`ChaosProvider` (content-keyed transient + rate-limit faults) —
   the per-job wrapper means chaos jobs bypass the coalesce hub, so this
   suite exercises the cache/checkpoint path, not the hub's dedup.
2. **Kill**: a call-count gate under every provider parks the fleet
   mid-run; the server shuts down without draining, then every parked
   call raises ``CrashInjected`` and the worker threads are joined.
   Nothing more is written, so on-disk state is a SIGKILL's.
3. **Restart + drain**: a new queue over the same directory must report
   every interrupted job ``resumable``, re-run each from its checkpoint,
   and drain the whole fleet to terminal states.
4. **Verify**: every resumed job's stored ``RunReport`` is byte-identical
   to an *uninterrupted* direct replay of that tenant's job sequence with
   identically-seeded chaos, and the provenance audit saw zero
   cross-tenant cache hits.

``SERVE_CHAOS_JOBS`` sizes the fleet: 100 by default, 400 in CI's tier-2
job.  Each tenant may queue the whole fleet, so the size never meets the
queue quota.
"""

from __future__ import annotations

import os

import pytest

from repro.core.runtime.system import LinguaManga
from repro.llm.cache import PromptCache
from repro.llm.errors import LLMError
from repro.llm.faults import ChaosProvider, FaultSpec
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.serve import JobQueue, JobStore, TenantQuota
from repro.serve.jobs import JobSpec, run_task
from tests.serve.conftest import GateProvider, crash

pytestmark = pytest.mark.tier2

N_JOBS = int(os.environ.get("SERVE_CHAOS_JOBS", "100"))
N_TENANTS = 8
FAULTS = [
    FaultSpec(kind="transient", rate=0.05),
    FaultSpec(kind="rate_limit", rate=0.02, retry_after=0.5),
]

#: Small per-task dataset refs: the fleet's size comes from job count, not
#: per-job work.  Seeds vary per job so tenants hold a mix of cold and
#: warm-overlapping prompts.
TASK_CYCLE = (
    ("imputation", lambda i: {"seed": 11 + i % 3, "n_train": 4, "n_test": 8}),
    ("names", lambda i: {"seed": 3 + i % 3, "n_documents": 8}),
    ("er", lambda i: {"name": "beer", "seed": 7, "n_entities": 12}),
)


def _spec(index: int) -> JobSpec:
    task, ref = TASK_CYCLE[index % len(TASK_CYCLE)]
    return JobSpec(
        tenant=f"tenant{index % N_TENANTS}",
        task=task,
        dataset=ref(index),
        options={"workers": 1 + (index % 3)},
    )


def _chaos_factory(shared):
    """Per-job fault injector, seeded on the spec digest (deterministic)."""

    def factory(spec: JobSpec):
        return ChaosProvider(
            shared,
            faults=FAULTS,
            seed=f"chaos-{spec.digest()}",
        )

    return factory


def _direct_replay(spec: JobSpec, cache_path) -> str | None:
    """An uninterrupted direct run of ``spec`` with identical chaos.

    Returns the canonical report, or ``None`` when the run fails (a
    content-keyed fault schedule exhausts the retry budget identically in
    the API run and here).
    """
    service = LLMService(
        _chaos_factory(SimulatedProvider())(spec),
        cache=PromptCache(path=cache_path),
    )
    workers = int(spec.options.get("workers", 1))
    try:
        result = run_task(spec, LinguaManga(service=service), workers=workers)
    except LLMError:
        return None
    report = getattr(result, "report", result)
    return report.canonical_json()


def test_chaos_flood_kill_restart_drain(tmp_path):
    serve_dir = tmp_path / "serve"
    # The tenants' caches saturate: the fleet pays 328 provider calls at 100
    # jobs and at 400, so the gate sits at or below 200 calls to be reached.
    gate = GateProvider(SimulatedProvider(), gate_after=max(20, min(2 * N_JOBS, 200)))
    queue = JobQueue(
        serve_dir,
        provider=gate,
        provider_factory=_chaos_factory(gate),
        max_workers=8,
        default_quota=TenantQuota(max_queued=N_JOBS),
    )

    # -- flood -------------------------------------------------------------------
    jobs = [queue.submit(_spec(index)) for index in range(N_JOBS)]
    assert len({job.job_id for job in jobs}) == N_JOBS

    # -- kill mid-run ------------------------------------------------------------
    assert gate.gated.wait(timeout=120), "fleet finished before the kill gate"
    crash(queue, gate)

    # -- every job is in a recoverable state -------------------------------------
    ledger = JobStore(serve_dir / "jobs.jsonl")
    after_kill = ledger.statuses()
    ledger.close()
    assert set(after_kill) == {job.job_id for job in jobs}
    assert set(after_kill.values()) <= {"succeeded", "resumable", "queued"}
    interrupted = {j for j, status in after_kill.items() if status == "resumable"}
    assert interrupted, "the kill never caught a job mid-run"

    # -- restart and drain -------------------------------------------------------
    revived = JobQueue(
        serve_dir,
        provider=SimulatedProvider(),
        provider_factory=_chaos_factory(SimulatedProvider()),
        max_workers=8,
        default_quota=TenantQuota(max_queued=N_JOBS),
    )
    final = revived.drain(timeout=600)
    assert set(final.values()) == {"succeeded"}

    # interrupted jobs were resumed, not restarted blind
    for job_id in interrupted:
        record = revived.store.get(job_id)
        assert record.status == "succeeded"
        assert record.resumed is True and record.attempts >= 2

    # -- zero cross-tenant cache hits in the provenance-tagged ledger ------------
    assert queue.audit_violations == []
    assert revived.audit_violations == []

    # -- resumed reports are byte-identical to uninterrupted direct runs ---------
    compared = 0
    for tenant_index in range(N_TENANTS):
        tenant = f"tenant{tenant_index}"
        replay_cache = tmp_path / "replay" / tenant / "cache.jsonl"
        # replay the tenant's surviving jobs in submission order: with the
        # one-running-job-per-tenant quota that *is* execution order, so
        # the direct cache journal evolves exactly like the tenant's.
        for record in revived.store.jobs(tenant=tenant):
            if record.status != "succeeded":
                continue
            direct = _direct_replay(record.spec, replay_cache)
            assert direct is not None, f"{record.job_id} succeeded but replay failed"
            api = (
                serve_dir / "jobs" / record.job_id / "report.json"
            ).read_text(encoding="utf-8")
            assert api == direct, (
                f"{record.job_id} ({tenant}, resumed={record.resumed}) "
                "drifted from its uninterrupted direct run"
            )
            compared += 1
    assert compared >= N_JOBS // 2, "too few jobs were byte-verified"
    # the kill-interrupted jobs specifically must be among the verified
    assert interrupted - {
        j for j, s in final.items() if s != "succeeded"
    } <= {j for j, s in final.items() if s == "succeeded"}

    revived.close()
