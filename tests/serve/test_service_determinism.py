"""Service-level determinism: API jobs == direct runs, byte for byte.

The acceptance contract of the serving layer: a job submitted over HTTP —
admitted, queued, run on a pool worker with a namespaced tenant cache and
the cross-tenant coalesce hub active — must produce a
``RunReport.canonical_json()`` byte-identical to calling the task runner
directly on a plain :class:`LLMService`, cold and warm, at workers 1, 2
and 8.  The server stores each job's full canonical report at
``<data_dir>/jobs/<id>/report.json`` precisely so this comparison is a
file read, not a reconstruction.
"""

from __future__ import annotations

import pytest

from repro.core.runtime.system import LinguaManga
from repro.llm.cache import PromptCache
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.serve.jobs import run_task
from tests.serve.conftest import ApiClient, make_spec

MATRIX = [
    ("imputation", 1),
    ("imputation", 2),
    ("imputation", 8),
    ("er", 2),
    ("names", 2),
    ("dsl", 1),
    ("dedup", 2),
]


def _direct_reports(task: str, workers: int, cache_path, runs: int) -> list[str]:
    """``runs`` back-to-back direct executions sharing one cache journal.

    Each run builds a fresh service over the same journal — exactly the
    per-job service construction the queue performs — so report ``i`` is
    the direct-run target for the tenant's ``i``-th API submission.
    """
    reports = []
    for _ in range(runs):
        service = LLMService(
            SimulatedProvider(),
            cache=PromptCache(path=cache_path),
        )
        result = run_task(
            make_spec(task, workers=workers),
            LinguaManga(service=service),
            workers=workers,
        )
        report = getattr(result, "report", result)
        reports.append(report.canonical_json())
    return reports


@pytest.mark.parametrize("task,workers", MATRIX)
def test_api_job_report_is_byte_identical_to_direct_run(
    task, workers, queue, server, serve_dir, tmp_path
):
    direct_cold, direct_warm = _direct_reports(
        task, workers, tmp_path / "direct-cache.jsonl", runs=2
    )

    client = ApiClient(server.host, server.port)
    api_reports = []
    for _ in range(2):  # cold, then warm on the tenant's journal
        status, accepted = client.submit(make_spec(task, workers=workers))
        assert status == 202
        job = queue.store.wait_for(accepted["job_id"])
        assert job.status == "succeeded", job.error
        api_reports.append(
            (serve_dir / "jobs" / job.job_id / "report.json").read_text(
                encoding="utf-8"
            )
        )

    assert api_reports[0] == direct_cold
    assert api_reports[1] == direct_warm
    assert queue.audit_violations == []


def test_worker_count_is_invisible_in_the_report(queue, serve_dir):
    """Same spec at different worker counts: same report bytes.

    Distinct tenants isolate the caches, so each run is cold; the hub
    *does* share settled answers across them — sharing must not leak into
    report bytes either.
    """
    reports = []
    for tenant, workers in (("w1", 1), ("w2", 2), ("w8", 8)):
        job = queue.submit(make_spec("imputation", tenant=tenant, workers=workers))
        done = queue.store.wait_for(job.job_id)
        assert done.status == "succeeded", done.error
        reports.append(
            (serve_dir / "jobs" / job.job_id / "report.json").read_text(
                encoding="utf-8"
            )
        )
    assert reports[0] == reports[1] == reports[2]
    assert queue.registry.hub.stats()["shared_calls"] > 0
    assert queue.audit_violations == []


def test_resubmitted_job_equals_back_to_back_direct_runs(queue, serve_dir, tmp_path):
    """Three consecutive warm generations stay aligned, not just the first."""
    direct = _direct_reports("names", 2, tmp_path / "direct-cache.jsonl", runs=3)
    for generation in range(3):
        job = queue.submit(make_spec("names", workers=2))
        done = queue.store.wait_for(job.job_id)
        assert done.status == "succeeded", done.error
        api = (serve_dir / "jobs" / job.job_id / "report.json").read_text(
            encoding="utf-8"
        )
        assert api == direct[generation], f"generation {generation} drifted"


def test_api_server_survives_and_isolates_concurrent_tenants(queue, server):
    """Many tenants at once: all succeed, reports agree, audit stays clean."""
    client = ApiClient(server.host, server.port)
    accepted = []
    for index in range(6):
        status, job = client.submit(
            make_spec("imputation", tenant=f"tenant{index}", workers=2)
        )
        assert status == 202
        accepted.append(job["job_id"])
    digests = set()
    for job_id in accepted:
        job = queue.store.wait_for(job_id, timeout=120)
        assert job.status == "succeeded", job.error
        digests.add(job.result["report_digest"])
    assert len(digests) == 1  # identical cold runs, tenant-independent
    assert queue.audit_violations == []
