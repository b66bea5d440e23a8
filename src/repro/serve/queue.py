"""The multi-tenant job queue: one shared provider, isolated per-job runs.

Execution model
---------------

Every admitted job runs on a bounded thread pool with a **fresh**
:class:`~repro.llm.service.LLMService` — its own ledger and virtual clock —
so the job's :class:`RunReport` is byte-identical to a direct
``system.run`` of the same spec.  What jobs share is deliberate and
narrow:

- the **provider object**, fronted by one
  :class:`~repro.llm.service.CoalesceHub` that deduplicates identical
  in-flight (and settled) requests across tenants;
- the **tenant's prompt cache** (namespaced keys, own journal), shared
  only between that tenant's own jobs — which, with the default
  one-running-job-per-tenant quota, makes an API warm run equal a direct
  warm run byte for byte.

Crash safety
------------

The job ledger (:class:`~repro.serve.store.JobStore`) is write-ahead:
``kill()`` simulates server death by cancelling every running job's token
and *writing nothing* — the ledger still says ``running``, so the next
queue constructed over the same directory reports those jobs
``resumable`` and re-runs them through the PR 5 checkpoint machinery,
replaying committed chunks byte-identically.

Cross-tenant isolation audit
----------------------------

Beyond namespaced keys and per-tenant cache objects, the queue keeps a
live **provenance audit**: every ledger record of every finished job is
folded into a map of which tenants *paid* for which (namespace-free)
prompt identity, and every exact-cache hit must belong to a tenant that
previously paid for that identity itself.  If namespace isolation ever
regressed — keys pooled, namespaces dropped — the first cross-tenant hit
trips the audit.  The chaos suite asserts ``audit_violations == []``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

from repro.core.runtime.cancel import CancelToken, JobCancelled
from repro.obs import Observability, progress_events
from repro.serve.admission import AdmissionController, QuotaExceeded, TenantQuota
from repro.serve.jobs import (
    TERMINAL_STATUSES,
    JobError,
    JobSpec,
    result_payload,
    run_task,
)
from repro.serve.store import JobRecord, JobStore
from repro.serve.tenancy import TenantRegistry

__all__ = ["JobQueue", "QuotaExceeded", "JobError"]


def _base_digest(prompt: str, max_tokens: int, version: str) -> str:
    """Namespace-free prompt identity for the isolation audit."""
    payload = json.dumps([prompt, max_tokens, version], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class _IsolationAudit:
    """Tracks which tenants paid for which prompts; flags alien cache hits."""

    def __init__(self) -> None:
        self._creators: dict[str, set[str]] = {}
        #: tenant -> the cache keys its last :meth:`seed` saw, all registered.
        self._seeded: dict[str, set] = {}
        self.violations: list[dict] = []
        self._lock = threading.Lock()

    def seed(self, tenant: str, keys) -> None:
        """Register a tenant's cached keys as self-paid, each key once.

        Called with the whole cache on every submit; only keys the
        previous call did not see are digested, so a job's share of this
        does not grow with what its tenant has cached.
        """
        with self._lock:
            live = set(keys)
            for key in live.difference(self._seeded.get(tenant, ())):
                digest = _base_digest(key.prompt, key.max_tokens, key.version)
                self._creators.setdefault(digest, set()).add(tenant)
            self._seeded[tenant] = live

    def fold(self, tenant: str, job_id: str, records) -> None:
        with self._lock:
            for record in records:
                digest = _base_digest(
                    record.prompt, record.max_tokens, record.version
                )
                if record.provenance == "cache-exact":
                    owners = self._creators.get(digest, set())
                    if tenant not in owners:
                        self.violations.append(
                            {
                                "job": job_id,
                                "tenant": tenant,
                                "digest": digest,
                                "owners": sorted(owners),
                            }
                        )
                else:
                    # provider calls and distilled answers both *create*
                    # the cache entry this tenant may hit later.
                    self._creators.setdefault(digest, set()).add(tenant)


class JobQueue:
    """Admission-controlled, crash-safe execution of curation jobs.

    Parameters
    ----------
    data_dir:
        Durable root: the job ledger, per-tenant cache journals and
        per-job checkpoint journals all live under it.  Constructing a
        queue over an existing directory **recovers**: terminal jobs stay
        terminal, queued jobs re-enter the queue, and jobs that were
        running when the previous process died come back ``resumable``
        and re-run from their checkpoints.
    provider:
        The one shared provider (default: a fresh ``SimulatedProvider``).
    provider_factory:
        Optional hook ``(spec) -> provider | None`` consulted per job; a
        non-None return runs that job against its own provider (the chaos
        tests wrap the shared provider in per-job fault injectors this
        way — such jobs bypass the coalesce hub automatically).
    max_workers:
        Concurrent jobs across all tenants.
    """

    def __init__(
        self,
        data_dir: str | Path,
        provider: Any = None,
        max_workers: int = 4,
        default_quota: TenantQuota | None = None,
        cache_enabled: bool = True,
        provider_factory: Callable[[JobSpec], Any] | None = None,
        start: bool = True,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.max_workers = max_workers
        self.provider_factory = provider_factory
        self.store = JobStore(self.data_dir / "jobs.jsonl")
        self.registry = TenantRegistry(
            self.data_dir, provider=provider, cache_enabled=cache_enabled
        )
        self.admission = AdmissionController(default_quota=default_quota)
        self.audit = _IsolationAudit()
        self._lock = threading.RLock()
        self._backlog: dict[str, deque[str]] = {}
        self._tokens: dict[str, CancelToken] = {}
        self._active: dict[str, threading.Thread] = {}
        self._killed = False
        self._closed = False
        self._paused = not start
        #: Set by :meth:`kill` once the queue is marked dead and every
        #: active job's token is cancelled (but before worker threads are
        #: joined).  A test holding workers captive — e.g. parked on a
        #: blocking provider — waits on this, then releases them, so the
        #: kill is race-free without polling.
        self.kill_cancelled = threading.Event()
        self._recover()
        self._pump()

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        for job in self.store.jobs():
            if job.terminal:
                continue
            tenant = job.spec.tenant
            self.admission.restore_queued(tenant)
            self._backlog.setdefault(tenant, deque()).append(job.job_id)
            self._seed_tenant_audit(tenant)

    def _seed_tenant_audit(self, tenant: str) -> None:
        cache = self.registry.get(tenant).cache
        self.audit.seed(tenant, (key for key, _ in cache.entries()))

    # -- submission --------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Validate, admit and enqueue one job.

        Raises :class:`JobError` for malformed specs and
        :class:`QuotaExceeded` when admission refuses — neither leaves a
        trace in the ledger (refused work was never accepted).
        """
        spec.validate()
        with self._lock:
            if self._closed or self._killed:
                raise QuotaExceeded("queue is shut down", retryable=False)
            self.admission.admit(spec.tenant)
            self._seed_tenant_audit(spec.tenant)
            job = self.store.submit(spec)
            self._backlog.setdefault(spec.tenant, deque()).append(job.job_id)
        self._pump()
        return job

    def cancel(self, job_id: str) -> JobRecord | None:
        """Cancel a job: dequeued immediately, or interrupted at the next
        chunk boundary if running.  Terminal jobs are left untouched."""
        with self._lock:
            job = self.store.get(job_id)
            if job is None or job.terminal:
                return job
            tenant = job.spec.tenant
            backlog = self._backlog.get(tenant)
            if backlog is not None and job_id in backlog:
                backlog.remove(job_id)
                self.admission.forget_queued(tenant)
                return self.store.transition(
                    job_id, "cancelled", error="cancelled before start"
                )
            token = self._tokens.get(job_id)
        if token is not None:
            token.cancel("cancelled")
        return self.store.get(job_id)

    # -- dispatch ----------------------------------------------------------------

    def resume_pending(self) -> None:
        """Start dispatching (used with ``start=False`` construction)."""
        with self._lock:
            self._paused = False
        self._pump()

    def _pump(self) -> None:
        """Start queued jobs while pool slots and quotas allow."""
        while True:
            with self._lock:
                if self._paused or self._killed or self._closed:
                    return
                if len(self._active) >= self.max_workers:
                    return
                tenant = self.admission.next_tenant()
                if tenant is None:
                    return
                backlog = self._backlog.get(tenant)
                if not backlog:
                    # admission thinks work exists but the backlog is
                    # empty: reconcile (cancel raced) and try again.
                    self.admission.forget_queued(tenant)
                    continue
                if not self.admission.start(tenant):
                    return
                job_id = backlog.popleft()
                job = self.store.get(job_id)
                token = CancelToken()
                self._tokens[job_id] = token
                thread = threading.Thread(
                    target=self._run_job,
                    args=(job, token),
                    name=f"repro-serve-{job_id}",
                    daemon=True,
                )
                self._active[job_id] = thread
                # Start while still holding the lock: kill() snapshots
                # _active under this lock and joins every entry, so a
                # registered-but-unstarted thread would make join() raise
                # (and could run after the store closes).  start() returns
                # immediately, so holding the lock across it is safe.
                thread.start()

    # -- execution ---------------------------------------------------------------

    def _job_dir(self, job_id: str) -> Path:
        return self.data_dir / "jobs" / job_id

    def _restore_cache_state(self, job: JobRecord, tenant: str, job_dir: Path) -> None:
        """Pin the tenant cache to the state the job's *first* attempt saw.

        A killed attempt keeps appending to the tenant's cache journal up
        to the kill — including compile-phase entries written before the
        checkpoint header exists.  Re-running over that partially-warmed
        cache would make the resumed run cheaper (and its clock earlier)
        than the uninterrupted one instead of byte-identical, so the first
        attempt snapshots the cache's state digests beside the checkpoint
        and every re-attempt rewinds to them; the rewound entries are
        re-created identically as the resumed run re-pays them.  Only safe
        while no sibling job of the tenant is mid-flight — guaranteed by
        the default one-running-job-per-tenant quota; with a raised
        ``max_running`` the rewind is skipped and resumed byte-identity is
        out of contract.
        """
        if not self.registry.cache_enabled:
            return
        tenant_state = self.registry.get(tenant)
        if tenant_state.active_jobs != 1:
            return
        snapshot_path = job_dir / "cache_state.json"
        if job.attempts == 0:
            exact = tenant_state.cache.state_digests()
            tmp_path = snapshot_path.with_name(snapshot_path.name + ".tmp")
            tmp_path.write_text(json.dumps({"exact": exact}), encoding="utf-8")
            os.replace(tmp_path, snapshot_path)
        elif snapshot_path.exists():
            try:
                state = json.loads(snapshot_path.read_text(encoding="utf-8"))
                # An older build's snapshot carries a second list; only
                # "exact" is read.
                exact = state["exact"]
            except (ValueError, KeyError, TypeError, OSError):
                # A torn or unreadable snapshot is treated as absent: the
                # resume still runs, it just skips the cache rewind.
                return
            tenant_state.cache.restore_state(exact)

    def _run_job(self, job: JobRecord, token: CancelToken) -> None:
        spec = job.spec
        tenant = spec.tenant
        obs = Observability()
        service = None
        started = False
        # Everything after this line — including setup — runs under the
        # try, so any failure still reaches a terminal status and the
        # finally block releases the admission slot and pool entry.
        try:
            self.registry.job_started(tenant)
            started = True
            job_dir = self._job_dir(job.job_id)
            job_dir.mkdir(parents=True, exist_ok=True)
            checkpoint_path = job_dir / "checkpoint.jsonl"
            resumed = checkpoint_path.exists()
            self._restore_cache_state(job, tenant, job_dir)
            self.store.transition(
                job.job_id,
                "running",
                attempts=job.attempts + 1,
                resumed=resumed,
            )
            provider = (
                self.provider_factory(spec)
                if self.provider_factory is not None
                else None
            )
            service = self.registry.service_for_job(
                tenant, provider=provider, obs=obs
            )
            from repro.core.runtime.system import LinguaManga

            system = LinguaManga(service=service)
            workers = int(spec.options.get("workers", 1))
            result = run_task(
                spec,
                system,
                workers=workers,
                checkpoint_path=str(checkpoint_path),
                resume=True,
                cancel=token,
            )
        except JobCancelled as cancelled:
            if not self._killed:
                if service is not None:
                    # Only operator-merged records exist here (cancellation
                    # unwinds at chunk/operator boundaries), so the ledger
                    # prefix is consistent and safe to audit.
                    self.audit.fold(tenant, job.job_id, list(service.records))
                self.store.transition(
                    job.job_id,
                    "cancelled",
                    error=str(cancelled.reason),
                    progress=progress_events(obs.tracer.roots),
                )
        except Exception as error:  # noqa: BLE001 - job boundary
            if not self._killed:
                if service is not None:
                    # Entries a failed attempt wrote to the tenant cache
                    # are real: register them as self-paid so a sibling
                    # job's later exact hits on them don't read as
                    # cross-tenant violations.
                    self.audit.fold(tenant, job.job_id, list(service.records))
                self.store.transition(
                    job.job_id,
                    "failed",
                    error=f"{type(error).__name__}: {error}",
                    progress=progress_events(obs.tracer.roots),
                )
        else:
            if not self._killed:
                report = getattr(result, "report", result)
                self.audit.fold(tenant, job.job_id, service.records)
                payload = result_payload(spec, result)
                if report is not None and hasattr(report, "canonical_json"):
                    (job_dir / "report.json").write_text(
                        report.canonical_json(), encoding="utf-8"
                    )
                self.store.transition(
                    job.job_id,
                    "succeeded",
                    result=payload,
                    progress=progress_events(obs.tracer.roots),
                )
        finally:
            if started:
                self.registry.job_finished(tenant)
            with self._lock:
                self._tokens.pop(job.job_id, None)
                self._active.pop(job.job_id, None)
                self.admission.finish(tenant)
            self._pump()

    # -- lifecycle ---------------------------------------------------------------

    def kill(self, join_timeout: float = 60.0) -> None:
        """Simulate abrupt server death.

        Running jobs are interrupted at their next cancellation boundary
        and **no ledger record is written** — on-disk state is exactly
        what a SIGKILL would leave, which is what the restart path (and
        the chaos suite) exercises.  Worker threads are joined so the old
        incarnation cannot keep appending to cache journals after a new
        queue opens the same directory.
        """
        with self._lock:
            self._killed = True
            tokens = list(self._tokens.values())
            threads = list(self._active.values())
        for token in tokens:
            token.cancel("server-killed")
        self.kill_cancelled.set()
        for thread in threads:
            thread.join(timeout=join_timeout)
            if thread.is_alive():
                raise TimeoutError(
                    f"worker {thread.name} survived kill for {join_timeout}s"
                )
        self.store.kill()
        self.registry.close()

    def drain(self, timeout: float = 120.0) -> dict[str, str]:
        """Wait until every accepted job is terminal; returns statuses."""
        deadline = time.monotonic() + timeout
        while True:
            pending = [
                job.job_id for job in self.store.jobs() if not job.terminal
            ]
            if not pending:
                return self.store.statuses()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"jobs still pending after {timeout}s: {pending}")
            self.store.wait_for(
                pending[0],
                TERMINAL_STATUSES,
                timeout=remaining,
            )

    def close(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Graceful shutdown: optionally drain, then settle the ledger."""
        if drain and not self._killed:
            self.drain(timeout=timeout)
        with self._lock:
            self._closed = True
        if not self._killed:
            self.store.close()
            self.registry.close()

    # -- introspection -----------------------------------------------------------

    @property
    def audit_violations(self) -> list[dict]:
        return list(self.audit.violations)

    def stats(self) -> dict:
        statuses = self.store.statuses()
        by_status: dict[str, int] = {}
        for status in statuses.values():
            by_status[status] = by_status.get(status, 0) + 1
        return {
            "jobs": dict(sorted(by_status.items())),
            "tenants": self.admission.counts(),
            "hub": self.registry.hub.stats(),
            "audit_violations": len(self.audit.violations),
            "refusals": self.admission.refusals,
        }
