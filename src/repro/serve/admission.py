"""Admission control: per-tenant quotas and round-robin dispatch.

The service shares one provider and one worker pool across every tenant,
so admission is where multi-tenancy becomes *fair* instead of merely
concurrent:

- **quotas** bound how many jobs a tenant may have queued and running at
  once — a tenant flooding the queue is refused at submission, not
  starved at dispatch;
- **round-robin dispatch** over tenants with ready work guarantees no
  tenant waits forever behind a busier one: each dispatch starts from the
  cursor *after* the last tenant served.

The hypothesis property suite (``tests/serve/test_admission_properties.py``)
pins the invariants: counters never go negative, grant/release sequences
commute, and round-robin serves every backlogged tenant within one full
rotation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "TenantQuota",
    "QuotaExceeded",
    "AdmissionController",
    "DEFAULT_QUOTA",
]


class QuotaExceeded(Exception):
    """Submission refused: queue quota hit.

    ``retryable`` distinguishes a 429 (try again later: queue pressure)
    from a hard refusal.
    """

    def __init__(self, reason: str, retryable: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.retryable = retryable


@dataclass
class TenantQuota:
    """Static limits for one tenant."""

    max_queued: int = 16
    max_running: int = 1

    def __post_init__(self) -> None:
        if self.max_queued < 1:
            raise ValueError("max_queued must be at least 1")
        if self.max_running < 1:
            raise ValueError("max_running must be at least 1")


#: The default quota: one running job per tenant.  Serialising each
#: tenant's jobs is a determinism decision, not just a fairness one — a
#: tenant's warm run then sees exactly the cache state its previous job
#: left, byte-identical to running the jobs back-to-back directly.
DEFAULT_QUOTA = TenantQuota()


class AdmissionController:
    """Tracks per-tenant queue/run counts and arbitrates dispatch order.

    Thread safe.  The dispatch cursor implements round-robin: tenants are
    visited in sorted-name order starting after the last tenant served.
    """

    def __init__(self, default_quota: TenantQuota | None = None):
        self.default_quota = default_quota or DEFAULT_QUOTA
        self._lock = threading.RLock()
        self._quotas: dict[str, TenantQuota] = {}
        self._queued: dict[str, int] = {}
        self._running: dict[str, int] = {}
        self._cursor: str | None = None
        self.refusals = 0

    # -- registration ------------------------------------------------------------

    def register(self, tenant: str, quota: TenantQuota | None = None) -> TenantQuota:
        """Declare a tenant (idempotent); returns its effective quota."""
        with self._lock:
            if quota is not None:
                self._quotas[tenant] = quota
            resolved = self._quotas.setdefault(tenant, self.default_quota)
            self._queued.setdefault(tenant, 0)
            self._running.setdefault(tenant, 0)
            return resolved

    def quota(self, tenant: str) -> TenantQuota:
        with self._lock:
            return self._quotas.get(tenant, self.default_quota)

    # -- submission --------------------------------------------------------------

    def admit(self, tenant: str) -> None:
        """Account one submission; raises :class:`QuotaExceeded` on refusal.

        A refused submission consumes no quota.  On success the tenant's
        queued count is incremented — callers must pair every admit with
        exactly one of :meth:`start` or :meth:`forget_queued`.
        """
        with self._lock:
            quota = self.register(tenant)
            if self._queued[tenant] >= quota.max_queued:
                self.refusals += 1
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {self._queued[tenant]} queued jobs "
                    f"(max {quota.max_queued})"
                )
            self._queued[tenant] += 1

    def restore_queued(self, tenant: str) -> None:
        """Re-account a queued job on restart (no quota check)."""
        with self._lock:
            self.register(tenant)
            self._queued[tenant] += 1

    # -- dispatch ----------------------------------------------------------------

    def can_start(self, tenant: str) -> bool:
        with self._lock:
            return (
                self._queued.get(tenant, 0) > 0
                and self._running.get(tenant, 0)
                < self.quota(tenant).max_running
            )

    def start(self, tenant: str) -> bool:
        """Move one job queued -> running if the running quota allows."""
        with self._lock:
            if not self.can_start(tenant):
                return False
            self._queued[tenant] -= 1
            self._running[tenant] += 1
            self._cursor = tenant
            return True

    def finish(self, tenant: str) -> None:
        """Account one running job ending (any terminal status)."""
        with self._lock:
            if self._running.get(tenant, 0) < 1:
                raise ValueError(f"tenant {tenant!r} has no running jobs to finish")
            self._running[tenant] -= 1

    def forget_queued(self, tenant: str) -> None:
        """Account one queued job leaving the queue without running."""
        with self._lock:
            if self._queued.get(tenant, 0) < 1:
                raise ValueError(f"tenant {tenant!r} has no queued jobs to forget")
            self._queued[tenant] -= 1

    def next_tenant(self) -> str | None:
        """The round-robin choice among tenants that could start a job now.

        Tenants are ordered by name; the scan starts just past the tenant
        served last, so a tenant with a deep backlog cannot shadow the
        others — every ready tenant is reached within one rotation.
        """
        with self._lock:
            tenants = sorted(self._queued)
            if not tenants:
                return None
            start = 0
            if self._cursor in tenants:
                start = tenants.index(self._cursor) + 1
            for offset in range(len(tenants)):
                tenant = tenants[(start + offset) % len(tenants)]
                if self.can_start(tenant):
                    return tenant
            return None

    # -- introspection -----------------------------------------------------------

    def queued(self, tenant: str) -> int:
        with self._lock:
            return self._queued.get(tenant, 0)

    def running(self, tenant: str) -> int:
        with self._lock:
            return self._running.get(tenant, 0)

    def counts(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                tenant: {
                    "queued": self._queued.get(tenant, 0),
                    "running": self._running.get(tenant, 0),
                }
                for tenant in sorted(self._queued)
            }
