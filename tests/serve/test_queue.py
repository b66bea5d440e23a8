"""Unit tests for the multi-tenant job queue.

End-to-end execution, admission refusal, cancellation (queued and
running), cross-tenant request coalescing through the shared hub,
restart recovery, kill-then-resume, and the cross-tenant isolation
audit's tripwire.
"""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import pytest

from repro.llm.cache import CacheJournal
from repro.llm.providers import SimulatedProvider
from repro.serve import JobQueue, JobSpec, QuotaExceeded
from repro.serve.admission import TenantQuota
from repro.serve.jobs import JobError
from tests.serve.conftest import GateProvider, make_spec


def test_job_runs_to_success(queue, serve_dir):
    job = queue.submit(make_spec("imputation", workers=2))
    done = queue.store.wait_for(job.job_id)
    assert done.status == "succeeded"
    assert done.attempts == 1 and done.resumed is False
    assert done.result["task"] == "imputation"
    assert done.result["llm_calls"] > 0
    assert done.result["accuracy"] > 0
    assert "report_digest" in done.result
    assert (serve_dir / "jobs" / job.job_id / "report.json").exists()
    events = [event["event"] for event in done.progress]
    assert events[0] == "run:start" and events[-1] == "run:end"
    assert "phase" in events


def test_invalid_specs_are_refused_without_a_ledger_trace(queue, serve_dir):
    for spec in (
        make_spec("imputation", tenant="Bad Tenant!"),
        JobSpec(tenant="acme", task="alchemy"),
        JobSpec(tenant="acme", task="dsl", program="   "),
        JobSpec(tenant="acme", task="er", dataset={"name": "no-such-set"}),
    ):
        with pytest.raises(JobError):
            queue.submit(spec)
    assert queue.store.jobs() == []


@pytest.mark.parametrize(
    "options",
    [
        {"workers": "two"},
        {"workers": 0},
        {"workers": True},
        {"n_exampels": 2},
        {"n_examples": "2"},
        {"multilingual": False},  # a names option, not an er one
    ],
)
def test_bad_options_are_refused_at_submit(queue, options):
    """Options are checked against the row before any ledger write.

    Pre-fix ``{"workers": "two"}`` was accepted and then failed the job,
    ``{"workers": 0}`` ran at one worker and a misspelled key was dropped.
    """
    spec = JobSpec(
        tenant="acme", task="er", dataset={"name": "beer"}, options=options
    )
    with pytest.raises(JobError):
        queue.submit(spec)
    assert queue.store.jobs() == []


def test_queue_quota_refuses_floods(serve_dir):
    queue = JobQueue(
        serve_dir,
        max_workers=1,
        default_quota=TenantQuota(max_queued=2, max_running=1),
        start=False,  # keep everything queued so the quota is what refuses
    )
    queue.submit(make_spec("imputation"))
    queue.submit(make_spec("imputation"))
    with pytest.raises(QuotaExceeded) as refusal:
        queue.submit(make_spec("imputation"))
    assert refusal.value.retryable
    # another tenant is unaffected by acme's full queue
    queue.submit(make_spec("imputation", tenant="globex"))
    assert queue.admission.refusals == 1
    queue.close(drain=False)


def test_cancel_queued_job_never_runs(serve_dir):
    queue = JobQueue(serve_dir, max_workers=1, start=False)
    job = queue.submit(make_spec("imputation"))
    cancelled = queue.cancel(job.job_id)
    assert cancelled.status == "cancelled"
    assert cancelled.error == "cancelled before start"
    queue.resume_pending()
    queue.close()  # drains: nothing may still be pending
    assert queue.store.get(job.job_id).status == "cancelled"
    assert not (serve_dir / "jobs" / job.job_id).exists()


def test_cancel_running_job_interrupts_at_chunk_boundary(serve_dir):
    provider = GateProvider(SimulatedProvider(), gate_after=2)
    queue = JobQueue(serve_dir, provider=provider, max_workers=1)
    job = queue.submit(make_spec("imputation"))
    assert provider.gated.wait(timeout=30)
    result = queue.cancel(job.job_id)
    assert result.status == "running"  # cancellation is cooperative
    provider.release.set()
    done = queue.store.wait_for(job.job_id)
    assert done.status == "cancelled"
    assert done.error == "cancelled"
    # the checkpoint journal survives: the work is resumable, not lost
    assert (serve_dir / "jobs" / job.job_id / "checkpoint.jsonl").exists()


def test_cancel_unknown_and_terminal_jobs_is_safe(queue):
    assert queue.cancel("job-9999") is None
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    assert queue.cancel(job.job_id).status == "succeeded"


def test_hub_shares_identical_prompts_across_tenants(queue):
    first = queue.submit(make_spec("imputation", tenant="acme"))
    queue.store.wait_for(first.job_id)
    second = queue.submit(make_spec("imputation", tenant="globex"))
    done = queue.store.wait_for(second.job_id)
    assert done.status == "succeeded"
    hub = queue.registry.hub.stats()
    # globex's identical prompts were answered from the hub's settled
    # results — shared across tenants without touching acme's cache...
    assert hub["shared_calls"] > 0
    # ...and both tenants' reports are byte-identical cold runs.
    first_report = queue.store.get(first.job_id).result["report_digest"]
    assert done.result["report_digest"] == first_report
    # sharing is not a cache hit: the audit saw no cross-tenant hits.
    assert queue.audit_violations == []


def test_tenant_caches_stay_isolated_on_disk(queue, serve_dir):
    queue.submit(make_spec("imputation", tenant="acme"))
    job = queue.submit(make_spec("imputation", tenant="globex"))
    queue.store.wait_for(job.job_id)
    queue.drain()
    for tenant in ("acme", "globex"):
        journal = CacheJournal(serve_dir / "tenants" / tenant / "cache.jsonl")
        namespaces = [key.namespace for key, _ in journal.load()]
        assert journal.corrupt_lines == 0  # no line hides a key
        assert namespaces and set(namespaces) == {tenant}


def test_audit_tripwire_flags_alien_cache_hits(queue):
    """The audit must trip on a cross-tenant hit if isolation ever regresses."""
    paid = SimpleNamespace(
        prompt="p", max_tokens=64, version="v1", provenance="provider"
    )
    stolen = SimpleNamespace(
        prompt="p", max_tokens=64, version="v1", provenance="cache-exact"
    )
    queue.audit.fold("acme", "job-1000", [paid])
    queue.audit.fold("acme", "job-1001", [stolen])  # own hit: fine
    assert queue.audit_violations == []
    queue.audit.fold("globex", "job-1002", [stolen])  # alien hit: violation
    violations = queue.audit_violations
    assert len(violations) == 1
    assert violations[0]["tenant"] == "globex"
    assert violations[0]["owners"] == ["acme"]


def test_restart_recovers_queued_jobs(serve_dir):
    queue = JobQueue(serve_dir, max_workers=1, start=False)
    job = queue.submit(make_spec("imputation"))
    queue.close(drain=False)  # graceful stop before the job ever started

    revived = JobQueue(serve_dir, max_workers=1)
    done = revived.store.wait_for(job.job_id)
    assert done.status == "succeeded"
    assert done.attempts == 1 and done.resumed is False
    revived.close()


def test_kill_midrun_then_resume(serve_dir):
    provider = GateProvider(SimulatedProvider(), gate_after=3)
    queue = JobQueue(serve_dir, provider=provider, max_workers=1)
    job = queue.submit(make_spec("imputation", workers=2))
    assert provider.gated.wait(timeout=30)

    killer = threading.Thread(target=queue.kill)
    killer.start()
    # kill() marks the queue dead and cancels tokens *before* joining;
    # waiting on its barrier makes releasing the gate race-free.
    assert queue.kill_cancelled.wait(timeout=30)
    provider.release.set()
    killer.join(timeout=60)
    assert not killer.is_alive()
    # death wrote nothing: the ledger still says "running" on disk
    statuses = [
        json.loads(line).get("status")
        for line in (serve_dir / "jobs.jsonl").read_text().splitlines()
    ]
    assert statuses == [None, "running"]  # submit record, then running

    revived = JobQueue(serve_dir, max_workers=1)
    done = revived.store.wait_for(job.job_id)
    assert done.status == "succeeded"
    assert done.resumed is True and done.attempts == 2
    assert revived.audit_violations == []
    revived.close()


def test_submit_after_shutdown_is_refused(serve_dir):
    queue = JobQueue(serve_dir, max_workers=1)
    queue.close()
    with pytest.raises(QuotaExceeded) as refusal:
        queue.submit(make_spec("imputation"))
    assert not refusal.value.retryable


def test_stats_shape(queue):
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    stats = queue.stats()
    assert stats["jobs"] == {"succeeded": 1}
    assert stats["tenants"]["acme"] == {"queued": 0, "running": 0}
    assert set(stats["hub"]) == {
        "settled",
        "inflight",
        "shared_calls",
        "settled_calls",
    }
    assert stats["audit_violations"] == 0
    assert stats["refusals"] == 0


def test_first_attempt_snapshot_is_atomic_and_parseable(queue, serve_dir):
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    job_dir = serve_dir / "jobs" / job.job_id
    snapshot = json.loads((job_dir / "cache_state.json").read_text())
    assert set(snapshot) == {"exact"}
    # the write goes through a tmp file + rename; no tmp file survives
    assert not (job_dir / "cache_state.json.tmp").exists()


def test_torn_cache_snapshot_is_treated_as_absent(queue, serve_dir):
    """A snapshot torn by a mid-write process kill must not crash resume.

    Pre-fix, ``json.loads`` of the torn file raised *outside* the worker's
    try/finally, leaking the admission slot and leaving the job
    non-terminal forever.  Now the snapshot is written atomically, and a
    corrupt leftover from an older incarnation reads as "no snapshot".
    """
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    job_dir = serve_dir / "jobs" / job.job_id
    (job_dir / "cache_state.json").write_text('{"exact": ["tor', encoding="utf-8")
    record = queue.store.get(job.job_id)
    assert record.attempts == 1  # > 0: the restore (not snapshot) path
    queue.registry.job_started("acme")
    try:
        queue._restore_cache_state(record, "acme", job_dir)  # must not raise
    finally:
        queue.registry.job_finished("acme")


def test_older_builds_cache_snapshot_still_rewinds_a_reattempt(queue, serve_dir):
    """Upgrade compatibility: ``cache_state.json`` used to carry a second
    list (``sealed``); a re-attempt ignores it and still rewinds."""
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    job_dir = serve_dir / "jobs" / job.job_id
    snapshot_path = job_dir / "cache_state.json"
    exact = json.loads(snapshot_path.read_text())["exact"]
    snapshot_path.write_text(json.dumps({"exact": exact, "sealed": exact}))
    cache = queue.registry.get("acme").cache
    assert len(cache) > len(exact)  # the job's own answers, cached since
    queue.registry.job_started("acme")
    try:
        queue._restore_cache_state(queue.store.get(job.job_id), "acme", job_dir)
    finally:
        queue.registry.job_finished("acme")
    assert cache.state_digests() == exact


def test_failed_job_cache_entries_count_as_self_paid(serve_dir):
    """Entries a *failed* attempt cached must be folded into the audit.

    Pre-fix only succeeded/cancelled jobs folded their ledgers, so a
    sibling job (seeded at submit time, before the entries existed) that
    later hit those entries tripped a false cross-tenant violation.
    """
    from repro.llm.errors import ProviderError
    from repro.llm.providers import LLMProvider

    class DieAfter(LLMProvider):
        """Delegates ``allow`` calls to the shared provider, then dies."""

        def __init__(self, inner, allow: int):
            self.inner = inner
            self.allow = allow
            self.calls = 0
            self._lock = threading.Lock()

        def cache_identity(self) -> str:
            return self.inner.cache_identity()

        def complete(self, request):
            with self._lock:
                self.calls += 1
                dead = self.calls > self.allow
            if dead:
                raise ProviderError("provider died mid-job")
            return self.inner.complete(request)

    shared = SimulatedProvider()
    dying = [DieAfter(shared, 2)]  # the first job to start gets it
    queue = JobQueue(
        serve_dir,
        provider=shared,
        max_workers=1,
        provider_factory=lambda spec: dying.pop() if dying else None,
        start=False,  # both jobs submit (and seed) before either runs
    )
    doomed = queue.submit(make_spec("imputation"))
    sibling = queue.submit(make_spec("imputation"))
    queue.resume_pending()
    assert queue.store.wait_for(doomed.job_id).status == "failed"
    assert queue.store.wait_for(sibling.job_id).status == "succeeded"
    # the sibling's exact hits on the failed attempt's entries are its
    # own tenant's — the audit must stay clean.
    assert queue.audit_violations == []
    queue.close()


def test_a_failed_operator_leaves_no_unpaid_cache_entries(serve_dir):
    """An operator that raises rolls back what its chunks cached.

    Pre-fix the scheduler dropped the raising operator's chunk scopes —
    their ledger records with them — but kept their cache inserts, so the
    sibling job hit entries no folded ledger said anyone paid for: five
    audit violations with ``owners: []``.
    """
    from repro.llm.errors import ProviderError
    from repro.llm.providers import LLMProvider

    class FailsSixthPrompt(LLMProvider):
        """Delegates to the shared provider, except the 6th distinct prompt."""

        def __init__(self, inner):
            self.inner = inner
            self.seen: list[str] = []
            self._lock = threading.Lock()

        def cache_identity(self) -> str:
            return self.inner.cache_identity()

        def complete(self, request):
            with self._lock:
                if request.prompt not in self.seen:
                    self.seen.append(request.prompt)
                doomed = self.seen.index(request.prompt) == 5
            if doomed:
                raise ProviderError("the sixth prompt never succeeds")
            return self.inner.complete(request)

    shared = SimulatedProvider()
    failing = [FailsSixthPrompt(shared)]  # the first job to start gets it
    queue = JobQueue(
        serve_dir,
        provider=shared,
        max_workers=1,
        provider_factory=lambda spec: failing.pop() if failing else None,
        start=False,  # both jobs submit (and seed) before either runs
    )
    doomed = queue.submit(make_spec("imputation"))
    sibling = queue.submit(make_spec("imputation"))
    queue.resume_pending()
    assert queue.store.wait_for(doomed.job_id).status == "failed"
    assert queue.store.wait_for(sibling.job_id).status == "succeeded"
    assert queue.audit_violations == []
    queue.close()


def seeding_digests(queue, monkeypatch) -> list:
    """Record every ``_base_digest`` call ``audit.seed`` makes from here on.

    Jobs fold their ledgers from worker threads, so a caller that wants
    seeding alone submits only while nothing runs.
    """
    from repro.serve import queue as queue_module

    digested, seeding = [], []
    real_digest, real_seed = queue_module._base_digest, queue.audit.seed

    def digest(*args):
        if seeding:
            digested.append(args)
        return real_digest(*args)

    def seed(tenant, keys):
        seeding.append(tenant)
        try:
            real_seed(tenant, keys)
        finally:
            seeding.pop()

    monkeypatch.setattr(queue_module, "_base_digest", digest)
    monkeypatch.setattr(queue.audit, "seed", seed)
    return digested


def test_audit_seeding_digests_each_cache_key_once(queue, monkeypatch):
    """Every submit seeds the audit with its tenant's whole cache; a key
    seeded before is skipped, so 12 jobs digest each key once — not each
    key once per later submit."""
    digested = seeding_digests(queue, monkeypatch)
    for _ in range(2):  # the second round is answered from the caches
        for tenant in ("acme", "globex", "initech"):
            for task in ("imputation", "names"):
                job = queue.submit(make_spec(task, tenant=tenant))
                assert queue.store.wait_for(job.job_id).status == "succeeded"
    queue.drain()
    cached = sum(
        len(queue.registry.get(tenant).cache)
        for tenant in ("acme", "globex", "initech")
    )
    assert cached > 0 and len(digested) == cached
    assert queue.audit_violations == []


def test_keys_of_a_cancelled_attempt_are_seeded_by_the_next_submit(
    serve_dir, monkeypatch
):
    """A chunk cancelled in flight leaves cache entries no ledger fold saw;
    the next submit must register them before a job can hit them."""
    provider = GateProvider(SimulatedProvider(), gate_after=2)
    queue = JobQueue(serve_dir, provider=provider, max_workers=1)
    first = queue.submit(make_spec("imputation"))
    assert provider.gated.wait(timeout=30)
    queue.cancel(first.job_id)
    provider.release.set()
    assert queue.store.wait_for(first.job_id).status == "cancelled"
    queue.drain()
    left_behind = len(queue.registry.get("acme").cache)
    assert left_behind > 0

    digested = seeding_digests(queue, monkeypatch)
    second = queue.submit(make_spec("imputation"))
    assert len(digested) == left_behind
    assert queue.store.wait_for(second.job_id).status == "succeeded"
    queue.drain()
    third = queue.submit(make_spec("imputation"))  # all hits, all its own
    assert queue.store.wait_for(third.job_id).status == "succeeded"
    assert len(digested) == len(queue.registry.get("acme").cache)
    assert queue.audit_violations == []
    queue.close()
