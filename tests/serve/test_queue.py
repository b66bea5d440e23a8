"""Unit tests for the multi-tenant job queue.

End-to-end execution, admission refusal, cross-tenant request
coalescing through the shared hub, restart recovery, crash-then-resume,
and the cross-tenant isolation audit's tripwire.
"""

from __future__ import annotations

import hashlib
import json
import threading
from types import SimpleNamespace

import pytest

from repro.core.runtime.checkpoint import CheckpointJournal, RunCheckpoint
from repro.core.runtime.system import LinguaManga
from repro.llm.cache import CacheJournal, PromptCache
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.serve import JobQueue, JobSpec, JobStore, QuotaExceeded
from repro.serve.admission import TenantQuota
from repro.serve.jobs import (
    DATASET_SLOTS,
    JobError,
    ResolvedDatasets,
    canonical_json,
    resolve_dataset,
    result_payload,
    run_task,
)
from tests.serve.conftest import DATASET_REFS, GateProvider, crash, make_spec


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
    gate = GateProvider(SimulatedProvider(), gate_after=0)
    queue = JobQueue(
        serve_dir,
        provider=gate,
        max_workers=1,
        default_quota=TenantQuota(max_queued=2, max_running=1),
    )
    # the first job starts and parks on the gate; the next two stay queued,
    # so the quota is what refuses the fourth
    for _ in range(3):
        queue.submit(make_spec("imputation"))
    with pytest.raises(QuotaExceeded) as refusal:
        queue.submit(make_spec("imputation"))
    assert refusal.value.retryable
    # another tenant is unaffected by acme's full queue
    queue.submit(make_spec("imputation", tenant="globex"))
    assert queue.admission.refusals == 1
    crash(queue, gate)


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
        namespaces = [key.namespace for key in journal.load()]
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
    gate = GateProvider(SimulatedProvider(), gate_after=0)
    queue = JobQueue(serve_dir, provider=gate, max_workers=1)
    queue.submit(make_spec("names"))  # parks on the gate, holding the pool
    job = queue.submit(make_spec("imputation"))
    crash(queue, gate)  # dies before the second job ever started

    revived = JobQueue(serve_dir, max_workers=1)
    done = revived.store.wait_for(job.job_id)
    assert done.status == "succeeded"
    assert done.attempts == 1 and done.resumed is False
    revived.close()


def test_a_cancelled_job_of_an_older_ledger_stays_terminal(serve_dir):
    """Older builds could cancel a job; nothing writes ``cancelled`` now,
    but a ledger holding it loads that job terminal and never runs it."""
    store = JobStore(serve_dir / "jobs.jsonl")
    job = store.submit(make_spec("imputation"))
    store.transition(job.job_id, "cancelled", error="cancelled before start")
    store.close()

    revived = JobQueue(serve_dir, max_workers=1)
    assert revived.store.get(job.job_id).status == "cancelled"
    assert revived.drain(timeout=5) == {job.job_id: "cancelled"}
    later = revived.submit(make_spec("imputation"))
    assert revived.store.wait_for(later.job_id).status == "succeeded"
    revived.close()
    assert revived.store.get(job.job_id).attempts == 0
    assert not (serve_dir / "jobs" / job.job_id).exists()


def test_kill_midrun_then_resume(serve_dir):
    provider = GateProvider(SimulatedProvider(), gate_after=3)
    queue = JobQueue(serve_dir, provider=provider, max_workers=1)
    job = queue.submit(make_spec("imputation", workers=2))
    assert provider.gated.wait(timeout=30)
    crash(queue, provider)
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


def test_a_job_running_at_close_changes_no_file_after_it(serve_dir):
    """``close(drain=False)`` is the last write: a job released after it
    runs on, but no file under the directory changes, the store still
    reads ``running`` as its ledger does, and the next start resumes it."""
    gate = GateProvider(SimulatedProvider(), gate_after=3)
    queue = JobQueue(serve_dir, provider=gate, max_workers=1)
    job = queue.submit(make_spec("imputation", workers=2))
    assert gate.gated.wait(timeout=30)
    queue.close(drain=False)
    with queue._lock:
        workers = list(queue._active.values())

    def files() -> dict:
        return {path: path.read_bytes() for path in serve_dir.rglob("*") if path.is_file()}

    closed = files()
    gate.release.set()
    for worker in workers:
        worker.join(60)
        assert not worker.is_alive()
    assert files() == closed
    assert queue.store.get(job.job_id).status == "running"
    assert JobStore(serve_dir / "jobs.jsonl").get(job.job_id).status == "resumable"

    revived = JobQueue(serve_dir, max_workers=1)
    done = revived.store.wait_for(job.job_id)
    assert done.status == "succeeded"
    assert done.resumed is True and done.attempts == 2
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
    """The tenant-cache state a re-attempt rewinds to is the run journal's
    header: one journal line, written before the job compiles, and no side
    file beside it."""
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    job_dir = serve_dir / "jobs" / job.job_id
    header, plan = CheckpointJournal(job_dir / "checkpoint.jsonl").load()[:2]
    assert (header["type"], plan["type"]) == ("header", "plan")
    assert header["cache_exact"] == []  # the tenant's first job: a cold cache
    assert sorted(path.name for path in job_dir.iterdir()) == [
        "checkpoint.jsonl",
        "report.json",
    ]


def test_torn_cache_snapshot_is_treated_as_absent(queue, serve_dir):
    """A header torn by a mid-write process kill must not crash the
    re-attempt: it is a torn tail, so the journal starts afresh."""
    job = queue.submit(make_spec("imputation"))
    queue.store.wait_for(job.job_id)
    path = serve_dir / "jobs" / job.job_id / "checkpoint.jsonl"
    path.write_text('{"type": "header", "format": 1, "cache_exact": ["tor')
    service = queue.registry.service_for_job("acme")
    checkpoint = RunCheckpoint(path)
    checkpoint.open(service)  # must not raise
    checkpoint.close()
    assert checkpoint.stats.torn_bytes > 0
    [header] = CheckpointJournal(path).load()
    assert header["cache_exact"] == service.cache.state_digests()


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
    gate = GateProvider(shared, gate_after=0)
    dying = [DieAfter(gate, 2)]  # the first job to start gets it
    queue = JobQueue(
        serve_dir,
        provider=shared,
        max_workers=1,
        provider_factory=lambda spec: dying.pop() if dying else None,
    )
    # the doomed job parks on its first call: both jobs submit (and seed)
    # before either caches anything
    doomed = queue.submit(make_spec("imputation"))
    sibling = queue.submit(make_spec("imputation"))
    gate.release.set()
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
    gate = GateProvider(shared, gate_after=0)
    failing = [FailsSixthPrompt(gate)]  # the first job to start gets it
    queue = JobQueue(
        serve_dir,
        provider=shared,
        max_workers=1,
        provider_factory=lambda spec: failing.pop() if failing else None,
    )
    # the doomed job parks on its first call: both jobs submit (and seed)
    # before either caches anything
    doomed = queue.submit(make_spec("imputation"))
    sibling = queue.submit(make_spec("imputation"))
    gate.release.set()
    assert queue.store.wait_for(doomed.job_id).status == "failed"
    assert queue.store.wait_for(sibling.job_id).status == "succeeded"
    assert queue.audit_violations == []
    queue.close()


def seeding_digests(monkeypatch) -> list:
    """Record every key any queue's ``audit.seed`` registers (``_identity``)
    from here on.

    Jobs fold their ledgers from worker threads, so a caller that wants
    seeding alone submits only while nothing runs.
    """
    from repro.serve import queue as queue_module

    digested, seeding = [], []
    real_identity = queue_module._identity
    real_seed = queue_module._IsolationAudit.seed

    def identity(key):
        if seeding:
            digested.append(key)
        return real_identity(key)

    def seed(audit, tenant, keys):
        seeding.append(tenant)
        try:
            real_seed(audit, tenant, keys)
        finally:
            seeding.pop()

    monkeypatch.setattr(queue_module, "_identity", identity)
    monkeypatch.setattr(queue_module._IsolationAudit, "seed", seed)
    return digested


def test_audit_seeding_digests_each_cache_key_once(queue, monkeypatch):
    """Every submit seeds the audit with its tenant's whole cache; a key
    seeded before is skipped, so 12 jobs digest each key once — not each
    key once per later submit."""
    digested = seeding_digests(monkeypatch)
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


def test_keys_of_a_crashed_attempt_are_seeded_on_restart(serve_dir, monkeypatch):
    """A crashed attempt leaves its merged chunks' cache entries, which no
    ledger fold saw; the restarted queue must register them before a job
    can hit them."""
    provider = GateProvider(SimulatedProvider(), gate_after=8)  # one chunk in
    queue = JobQueue(serve_dir, provider=provider, max_workers=1)
    first = queue.submit(make_spec("imputation"))
    assert provider.gated.wait(timeout=30)
    crash(queue, provider)
    journal = CacheJournal(serve_dir / "tenants" / "acme" / "cache.jsonl")
    left_behind = len(journal.load())
    assert left_behind > 0

    digested = seeding_digests(monkeypatch)
    revived = JobQueue(serve_dir, max_workers=1)  # recovers before it runs
    assert len(digested) == left_behind
    assert revived.store.wait_for(first.job_id).status == "succeeded"
    revived.drain()
    second = revived.submit(make_spec("imputation"))  # all hits, all its own
    assert revived.store.wait_for(second.job_id).status == "succeeded"
    assert len(digested) == len(revived.registry.get("acme").cache)
    assert revived.audit_violations == []
    revived.close()


def _data_digest(data) -> str:
    """A resolved dataset's identity: the repr of its records, hashed."""
    return hashlib.sha256(repr(data).encode("utf-8")).hexdigest()


def _counting_resolver(monkeypatch) -> list:
    """Record the ``(task, ref)`` of every dataset generation from here on."""
    from repro.serve import jobs as jobs_module

    generated, real = [], jobs_module.resolve_dataset

    def resolve(task, ref, probe=False):
        if not probe:
            generated.append((task, json.dumps(ref, sort_keys=True)))
        return real(task, ref, probe)

    monkeypatch.setattr(jobs_module, "resolve_dataset", resolve)
    return generated


@pytest.mark.parametrize("task", ["er", "names", "imputation", "dsl"])
def test_jobs_on_one_ref_share_one_read_only_dataset(
    task, serve_dir, tmp_path, monkeypatch
):
    """Two tenants' jobs on one ref, two at a time, generate its dataset once,
    leave it as generated, and report what direct runs on a freshly resolved
    copy report: each tenant's first job cold, its second warm."""
    generated = _counting_resolver(monkeypatch)
    queue = JobQueue(serve_dir, max_workers=2)
    specs = [make_spec(task, tenant=tenant) for _ in range(2) for tenant in ("acme", "globex")]
    jobs = [queue.submit(spec) for spec in specs]
    payloads = []
    for job in jobs:
        done = queue.store.wait_for(job.job_id)
        assert done.status == "succeeded", done.error
        payloads.append(done.result)
    shared = queue.datasets.get(task, specs[0].dataset)
    queue.close()
    assert generated == [(task, json.dumps(specs[0].dataset, sort_keys=True))]

    fresh = resolve_dataset(task, specs[0].dataset)
    assert shared is not fresh and _data_digest(shared) == _data_digest(fresh)
    for tenant in ("acme", "globex"):
        cache = tmp_path / f"direct-{tenant}.jsonl"
        for spec, payload in zip(specs, payloads):
            if spec.tenant != tenant:
                continue
            service = LLMService(SimulatedProvider(), cache=PromptCache(path=cache))
            direct = run_task(
                spec, LinguaManga(service=service), dataset=resolve_dataset(task, spec.dataset)
            )
            assert canonical_json(payload) == canonical_json(result_payload(spec, direct))


def test_resolved_datasets_generate_a_ref_once_and_evict_the_oldest(monkeypatch):
    from repro.serve import jobs as jobs_module

    generated = _counting_resolver(monkeypatch)
    counted, inside, release = jobs_module.resolve_dataset, threading.Event(), threading.Event()

    def held(task, ref, probe=False):
        inside.set()
        assert release.wait(timeout=30)
        return counted(task, ref, probe)

    monkeypatch.setattr(jobs_module, "resolve_dataset", held)
    datasets = ResolvedDatasets()
    ref = dict(DATASET_REFS["names"])
    results = [None, None]

    def get(slot: int) -> None:
        results[slot] = datasets.get("names", ref)

    first, second = (threading.Thread(target=get, args=(slot,)) for slot in range(2))
    first.start()
    assert inside.wait(timeout=30)  # the first thread is generating the ref...
    second.start()
    second.join(timeout=0.2)  # ...and the second waits for it, not beside it
    release.set()
    first.join()
    second.join()
    assert results[0] is results[1] and len(generated) == 1
    monkeypatch.setattr(jobs_module, "resolve_dataset", counted)

    others = [{**ref, "seed": 100 + index} for index in range(DATASET_SLOTS)]
    for other in others[:-1]:
        datasets.get("names", other)  # the table is full: ref, then others[:-1]
    datasets.get("names", ref)  # touched: now the most recently used
    generated.clear()
    datasets.get("names", others[-1])  # one more than it holds: evicts others[0]
    assert datasets.get("names", ref) is results[0]
    datasets.get("names", others[0])
    assert [json.loads(key)["seed"] for _, key in generated] == [
        others[-1]["seed"], others[0]["seed"]
    ]
