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
  warm run byte for byte;
- the **resolved dataset** of each (task, ref)
  (:class:`~repro.serve.jobs.ResolvedDatasets`), read-only.

Crash safety
------------

A served run stops one way: the process dies.  The job ledger
(:class:`~repro.serve.store.JobStore`) is write-ahead, so a job that was
running when the server died still reads ``running`` on disk, and the next
queue constructed over the same directory reports it ``resumable`` and
re-runs it through the checkpoint machinery: the job's run journal rewinds
the tenant cache to its state before the first attempt compiled, then
replays committed chunks byte-identically.  ``close(drain=False)``, the
CLI's shutdown, stops dispatch and closes every journal the queue's jobs
write, so a job still running writes nothing more: it dies at its next
append, or finishes unrecorded, and the ledger keeps it ``running``.

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
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

from repro.core.runtime.checkpoint import RunCheckpoint
from repro.obs import Observability, progress_events
from repro.serve.admission import AdmissionController, QuotaExceeded, TenantQuota
from repro.serve.jobs import (
    TERMINAL_STATUSES,
    JobError,
    JobSpec,
    ResolvedDatasets,
    result_payload,
    run_task,
)
from repro.serve.store import JobRecord, JobStore
from repro.serve.tenancy import TenantRegistry

__all__ = ["JobQueue", "QuotaExceeded", "JobError"]


def _identity(call) -> tuple[str, int, str]:
    """A cache key's or ledger record's namespace-free prompt identity."""
    return call.prompt, call.max_tokens, call.version


def _base_digest(prompt: str, max_tokens: int, version: str) -> str:
    """The digest a reported violation names its prompt identity by."""
    payload = json.dumps([prompt, max_tokens, version], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class _IsolationAudit:
    """Tracks which tenants paid for which prompts; flags alien cache hits.

    Keyed on the identity triple itself: its strings cache their hashes,
    so a record costs a dict probe, and only a violation is digested.
    """

    def __init__(self) -> None:
        self._creators: dict[tuple[str, int, str], set[str]] = {}
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
                self._creators.setdefault(_identity(key), set()).add(tenant)
            self._seeded[tenant] = live

    def fold(self, tenant: str, job_id: str, records) -> None:
        with self._lock:
            creators = self._creators
            for record in records:
                identity = _identity(record)
                if record.provenance == "cache-exact":
                    owners = creators.get(identity, ())
                    if tenant not in owners:
                        self.violations.append(
                            {
                                "job": job_id,
                                "tenant": tenant,
                                "digest": _base_digest(*identity),
                                "owners": sorted(owners),
                            }
                        )
                else:
                    # provider calls and distilled answers both *create*
                    # the cache entry this tenant may hit later.
                    creators.setdefault(identity, set()).add(tenant)


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
        provider_factory: Callable[[JobSpec], Any] | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.max_workers = max_workers
        self.provider_factory = provider_factory
        self.store = JobStore(self.data_dir / "jobs.jsonl")
        self.registry = TenantRegistry(self.data_dir, provider=provider)
        self.admission = AdmissionController(default_quota=default_quota)
        self.audit = _IsolationAudit()
        #: every job on one (task, ref) shares one resolved copy
        self.datasets = ResolvedDatasets()
        self._lock = threading.RLock()
        self._backlog: dict[str, deque[str]] = {}
        self._active: dict[str, threading.Thread] = {}
        self._checkpoints: dict[str, RunCheckpoint] = {}
        self._closed = False
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
            if self._closed:
                raise QuotaExceeded("queue is shut down", retryable=False)
            self.admission.admit(spec.tenant)
            self._seed_tenant_audit(spec.tenant)
            job = self.store.submit(spec)
            self._backlog.setdefault(spec.tenant, deque()).append(job.job_id)
        self._pump()
        return job

    # -- dispatch ----------------------------------------------------------------

    def _pump(self) -> None:
        """Start queued jobs while pool slots and quotas allow."""
        while True:
            with self._lock:
                if self._closed or len(self._active) >= self.max_workers:
                    return
                tenant = self.admission.next_tenant()
                if tenant is None or not self.admission.start(tenant):
                    return
                job_id = self._backlog[tenant].popleft()
                thread = threading.Thread(
                    target=self._run_job,
                    args=(self.store.get(job_id),),
                    name=f"repro-serve-{job_id}",
                    daemon=True,
                )
                self._active[job_id] = thread
                # Started under the lock, so every thread in _active has
                # started; start() returns at once.
                thread.start()

    # -- execution ---------------------------------------------------------------

    def _job_dir(self, job_id: str) -> Path:
        return self.data_dir / "jobs" / job_id

    def _run_job(self, job: JobRecord) -> None:
        spec = job.spec
        tenant = spec.tenant
        obs = Observability()
        service = None
        # Everything after this line — including setup — runs under the
        # try, so any failure still reaches a terminal status and the
        # finally block releases the admission slot and pool entry.
        try:
            self.registry.job_started(tenant)
            job_dir = self._job_dir(job.job_id)
            checkpoint = RunCheckpoint(job_dir / "checkpoint.jsonl")
            with self._lock:  # close() closes every checkpoint it finds here
                if self._closed:
                    return
                self._checkpoints[job.job_id] = checkpoint
            self.store.transition(
                job.job_id,
                "running",
                attempts=job.attempts + 1,
                resumed=checkpoint.path.exists(),
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
                checkpoint=checkpoint,
                dataset=self.datasets.get(spec.task, spec.dataset),
            )
        except Exception as error:  # noqa: BLE001 - job boundary
            if service is not None:
                # Entries a failed attempt wrote to the tenant cache are
                # real: register them as self-paid so a sibling job's later
                # exact hits on them don't read as cross-tenant violations.
                self.audit.fold(tenant, job.job_id, list(service.records))
            self.store.transition(
                job.job_id,
                "failed",
                error=f"{type(error).__name__}: {error}",
                progress=progress_events(obs.tracer.roots),
            )
        else:
            self.audit.fold(tenant, job.job_id, service.records)
            payload = result_payload(spec, result)
            with self._lock:
                if not self._closed:
                    (job_dir / "report.json").write_text(
                        result.report.canonical_json(), encoding="utf-8"
                    )
            self.store.transition(
                job.job_id,
                "succeeded",
                result=payload,
                progress=progress_events(obs.tracer.roots),
            )
        finally:
            with self._lock:
                self._active.pop(job.job_id, None)
                self._checkpoints.pop(job.job_id, None)
                self.admission.finish(tenant)
            self._pump()

    # -- lifecycle ---------------------------------------------------------------

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
        """Shut down: optionally drain, then close every journal.

        Without ``drain`` a running job is left to the process's end, and
        once ``close`` returns no file under ``data_dir`` changes: the job's
        checkpoint and its tenant's cache are closed (an append raises), its
        report is not written and the closed store changes nothing, so the
        ledger keeps it ``running`` and the next queue resumes it.
        """
        if drain:
            self.drain(timeout=timeout)
        with self._lock:
            self._closed = True
            for checkpoint in self._checkpoints.values():
                checkpoint.close()
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
