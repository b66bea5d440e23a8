"""Tenant registry: namespaced caches and per-job service construction.

Isolation here is **defense in depth**.  Every tenant gets its own
:class:`~repro.llm.cache.PromptCache` object with its own JSONL journal
(``<data_dir>/tenants/<name>/cache.jsonl``) — tenants cannot share a hit
because they do not share a cache.  Independently, every key a tenant's
jobs create carries the tenant's name as its ``CacheKey.namespace``, so
even if cache objects were ever pooled (or journals concatenated, or
checkpoint records replayed into the wrong service) the keys themselves
still refuse to collide.  The chaos suite's provenance audit rides on the
second layer: it recomputes key digests from ledger records and checks
each one resolves to the owning tenant.

What tenants *do* share is the provider — one object, fronted by a
:class:`~repro.llm.service.CoalesceHub` so identical in-flight prompts
across tenants are answered by one provider call.  Each job still gets a
fresh :class:`LLMService` (own ledger, own virtual clock), which is what
keeps an API job's run report byte-identical to a direct ``system.run``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from repro.llm.cache import PromptCache
from repro.llm.service import CoalesceHub, LLMService
from repro.resilience.clock import VirtualClock

__all__ = ["Tenant", "TenantRegistry"]


class Tenant:
    """One tenant's durable state: its namespace and its cache."""

    def __init__(self, name: str, cache: PromptCache):
        self.name = name
        self.cache = cache
        #: jobs currently executing for this tenant (registry-maintained).
        self.active_jobs = 0
        self._lock = threading.Lock()

    @property
    def namespace(self) -> str:
        return self.name


class TenantRegistry:
    """Creates tenants on first use and builds per-job services."""

    def __init__(
        self,
        data_dir: str | Path,
        provider: Any = None,
        cache_enabled: bool = True,
        persist_caches: bool = True,
    ):
        self.data_dir = Path(data_dir)
        if provider is None:
            from repro.llm.providers import SimulatedProvider

            provider = SimulatedProvider()
        self.provider = provider
        self.hub = CoalesceHub(provider)
        self.cache_enabled = cache_enabled
        self.persist_caches = persist_caches
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.RLock()

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                path = None
                if self.persist_caches:
                    path = self.data_dir / "tenants" / name / "cache.jsonl"
                tenant = Tenant(name, PromptCache(path=path))
                self._tenants[name] = tenant
            return tenant

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def job_started(self, name: str) -> None:
        tenant = self.get(name)
        with self._lock:
            tenant.active_jobs += 1

    def job_finished(self, name: str) -> None:
        tenant = self.get(name)
        with self._lock:
            if tenant.active_jobs > 0:
                tenant.active_jobs -= 1

    def service_for_job(
        self,
        name: str,
        provider: Any = None,
        obs: Any = None,
    ) -> LLMService:
        """A fresh service for one job of tenant ``name``.

        ``provider`` overrides the shared provider for this job only (the
        chaos tests wrap the shared provider in a fault injector this
        way); a non-shared provider automatically bypasses the coalesce
        hub — see :meth:`LLMService._hub`.
        """
        tenant = self.get(name)
        return LLMService(
            provider=provider if provider is not None else self.provider,
            cache=tenant.cache,
            cache_enabled=self.cache_enabled,
            namespace=tenant.namespace,
            coalesce_hub=self.hub,
            clock=VirtualClock(),
            obs=obs,
        )

    def close(self) -> None:
        """Close every tenant's cache journal and release tenant state."""
        with self._lock:
            for tenant in self._tenants.values():
                tenant.cache.close()
            self._tenants.clear()
