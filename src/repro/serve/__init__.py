"""The multi-tenant curation service: an asyncio job API over one system.

Lingua Manga, the paper, is a single-user library: one person, one
pipeline, one run.  This package is the deployment story the evaluation
section gestures at — many tenants submitting curation jobs (any row of
the task table: the demo applications, the curation family, or inline DSL
programs) to one long-lived service that
shares a single provider while keeping every tenant's cache, ledger and
results fully isolated.  The load-bearing properties:

- **determinism survives serving**: a job submitted over HTTP produces a
  run report byte-identical to calling ``system.run`` directly, cold or
  warm, at any worker count;
- **multi-tenancy is enforced, not assumed**: per-tenant namespaced
  cache keys, per-tenant journals, quota admission, round-robin
  dispatch, and a live provenance audit that trips on the first
  cross-tenant cache hit;
- **a run stops one way, by the server dying**: there is no cancel.
  The job ledger is write-ahead JSONL with the checkpoint journal's
  fsync/torn-tail discipline, so a killed server restarts with every
  accepted job either terminal or resumable, and resumed jobs replay
  byte-identically from their checkpoints.

Quickstart::

    python -m repro.serve --port 8080 --data-dir ./serve-data

    curl -X POST localhost:8080/jobs -d '{
        "tenant": "acme", "task": "er",
        "dataset": {"name": "beer", "seed": 7},
        "options": {"workers": 2}}'
    curl localhost:8080/jobs/job-0001
"""

from repro.serve.admission import (
    AdmissionController,
    QuotaExceeded,
    TenantQuota,
)
from repro.serve.jobs import (
    JOB_STATUSES,
    TASKS,
    TERMINAL_STATUSES,
    JobError,
    JobSpec,
    result_payload,
)
from repro.serve.queue import JobQueue
from repro.serve.server import JobServer
from repro.serve.store import JobRecord, JobStore
from repro.serve.tenancy import Tenant, TenantRegistry

__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "TASKS",
    "JobSpec",
    "JobError",
    "JobRecord",
    "JobStore",
    "JobQueue",
    "JobServer",
    "Tenant",
    "TenantRegistry",
    "TenantQuota",
    "AdmissionController",
    "QuotaExceeded",
    "result_payload",
]
