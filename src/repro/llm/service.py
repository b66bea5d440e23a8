"""The LLM service: caching, budgets, resilience and the call ledger.

Lingua Manga's "Highly Performant" property (paper section 1) is about
*minimising LLM service calls* — every cost and call-count number in the
evaluation is measured here.  The service wraps a provider with:

- a **prompt cache** (:mod:`repro.llm.cache`): exact hits on a
  versioned key (provider identity, prompt-template version, prompt,
  ``max_tokens``) and optional JSONL persistence so repeated runs
  warm-start,
- a **budget** (max calls and/or max dollars; exceeding raises
  :class:`BudgetExceededError`),
- a **resilience policy** (retry backoff, per-call deadline, circuit
  breaker, fallback provider chain — see :mod:`repro.resilience`), and
- a **ledger** recording every call with token counts, cost, purpose and
  its resilience ``outcome`` (served / cached / retried / fallback /
  circuit_open / gave_up).

Time is virtual: latency and every retry/cooldown wait are accumulated on a
:class:`~repro.resilience.clock.VirtualClock` rather than slept, so
experiments report realistic latency totals instantly.

The service is **thread safe** and built for the concurrent scheduler
(:mod:`repro.core.runtime.scheduler`):

- identical in-flight prompts are **coalesced** — concurrent duplicates
  wait for the leader's provider call and are answered as cache hits, so a
  prompt is never served twice just because callers raced;
- :meth:`prime` / :meth:`complete_many` are the **batched provider path**:
  N distinct uncached prompts go to the provider as one
  ``complete_batch`` request instead of N sequential calls, and each
  answer is handed to the caller that asked (one ledger record per paid
  prompt — a ``cached`` record always means an answer was reused);
- :meth:`scoped` gives a worker thread its own ledger buffer and shadow
  clock so the scheduler can merge per-chunk call records in a
  deterministic order, independent of thread completion order.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.llm.cache import (
    PROVENANCE_CACHE_EXACT,
    PROVENANCE_DISTILLED,
    PROVENANCE_PROVIDER,
    CacheKey,
    PromptCache,
)
from repro.llm.errors import (
    BudgetExceededError,
    CircuitOpenError,
    LLMError,
    ProviderError,
    RateLimitError,
)
from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse, SimulatedProvider
from repro.llm.tokenizer import count_tokens, estimate_cost
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import VirtualClock
from repro.resilience.policy import (
    OUTCOME_CACHED,
    OUTCOME_CIRCUIT_OPEN,
    OUTCOME_FALLBACK,
    OUTCOME_GAVE_UP,
    OUTCOME_RETRIED,
    OUTCOME_SERVED,
    SUCCESS_OUTCOMES,
    ResiliencePolicy,
    RetryPolicy,
)

__all__ = [
    "CallRecord",
    "UsageSummary",
    "usage_delta",
    "CallScope",
    "LLMService",
    "CoalesceHub",
    "DEFAULT_RETRY_JITTER",
]

_NO_VERSION = ""  # default prompt-template version tag

#: Jitter fraction applied by the service's *default* retry policy.  Keyed
#: deterministically on (seed, prompt, attempt) — see
#: :meth:`repro.resilience.policy.RetryPolicy.delay` — so concurrent
#: retries of different prompts de-synchronise instead of thundering back
#: at the provider in lockstep, while any given prompt's schedule stays
#: byte-reproducible.  Callers passing an explicit ``policy=`` (or relying
#: on ``RetryPolicy()``'s own ``jitter=0.0`` default) are unaffected.
DEFAULT_RETRY_JITTER = 0.1


@dataclass(frozen=True)
class CallRecord:
    """One ledger entry: a completed *or failed* request.

    ``max_tokens``/``version``/``model`` exist so a journaled record is
    self-contained: the checkpoint runtime rebuilds the versioned cache key
    and the cached :class:`LLMResponse` from the record alone when a
    resumed run re-warms the exact tier (:meth:`LLMService.restore_from_records`).
    """

    prompt: str
    response_text: str
    prompt_tokens: int
    completion_tokens: int
    cost: float
    cached: bool
    skill: str
    purpose: str
    latency_seconds: float
    retries: int = 0
    outcome: str = OUTCOME_SERVED
    provenance: str = PROVENANCE_PROVIDER
    max_tokens: int = 256
    version: str = _NO_VERSION
    model: str = ""

    @property
    def succeeded(self) -> bool:
        """Whether this entry produced a usable answer."""
        return self.outcome in SUCCESS_OUTCOMES


@dataclass(frozen=True)
class UsageSummary:
    """Aggregated usage over a set of call records."""

    total_calls: int
    served_calls: int
    cached_calls: int
    prompt_tokens: int
    completion_tokens: int
    cost: float
    latency_seconds: float
    retries: int = 0
    fallback_calls: int = 0
    failed_calls: int = 0
    distilled_calls: int = 0
    cache_evictions: int = 0
    #: virtual latency of provider-path records only (not cached); the
    #: distilled share is under ``distilled_seconds`` so downstream cost
    #: models never mistake local-model time for provider time.
    provider_seconds: float = 0.0
    distilled_seconds: float = 0.0

    def to_text(self) -> str:
        """One-line human-readable rendering."""
        text = (
            f"calls={self.total_calls} (served={self.served_calls}, "
            f"cached={self.cached_calls}) tokens={self.prompt_tokens}+"
            f"{self.completion_tokens} cost=${self.cost:.4f} "
            f"latency={self.latency_seconds:.1f}s"
        )
        if self.distilled_calls or self.cache_evictions:
            text += (
                f" distilled={self.distilled_calls} evictions={self.cache_evictions}"
            )
        if self.retries or self.fallback_calls or self.failed_calls:
            text += (
                f" retries={self.retries} fallbacks={self.fallback_calls} "
                f"failed={self.failed_calls}"
            )
        return text


def usage_delta(before: UsageSummary, after: UsageSummary) -> dict[str, float]:
    """What one run used: the usage fields every task result carries."""
    return {
        "llm_calls": after.served_calls - before.served_calls,
        "cost": after.cost - before.cost,
        "cached_calls": after.cached_calls - before.cached_calls,
        "distilled_calls": after.distilled_calls - before.distilled_calls,
    }


@dataclass
class CallScope:
    """A worker thread's private view of the service during one chunk.

    Ledger records land in ``records`` instead of the shared ledger, and
    time accrues on a **shadow clock** seeded from the shared clock's value
    at operator entry.  The scheduler merges scopes in chunk order
    (:meth:`LLMService.merge_scope`), which makes the ledger and the
    virtual-clock total independent of thread interleaving.
    """

    base: float
    clock: VirtualClock
    records: list[CallRecord] = field(default_factory=list)
    #: exact-tier cache keys this scope *created* (first insert, not a
    #: refresh of a pre-existing entry); :meth:`LLMService.rollback_scope`
    #: removes them when the scope's shard attempt fails.
    cache_keys: list[CacheKey] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Virtual time this scope accrued beyond its base."""
        return self.clock.now - self.base


class LLMService:
    """Cached, budgeted, resilient front end over an :class:`LLMProvider`.

    ``max_retries``/``backoff_seconds`` are legacy shorthands; passing a
    :class:`ResiliencePolicy` via ``policy=`` supersedes them and unlocks
    deadlines, circuit breaking and fallback chains.

    The cache is a :class:`repro.llm.cache.PromptCache`; pass one via
    ``cache=`` (or just a journal location via ``cache_path=`` for a warm
    persistent cache).  Keys are versioned — provider identity, the
    caller-supplied prompt-template ``version``, the prompt and
    ``max_tokens`` — so distinct skills or providers sharing a prompt
    string can never collide.
    """

    def __init__(
        self,
        provider: LLMProvider | None = None,
        cache_enabled: bool = True,
        max_calls: int | None = None,
        max_cost: float | None = None,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        policy: ResiliencePolicy | None = None,
        clock: VirtualClock | None = None,
        cache: PromptCache | None = None,
        cache_path: str | Path | None = None,
        obs: "object | None" = None,
        namespace: str = "",
        coalesce_hub: "CoalesceHub | None" = None,
    ):
        self.provider = provider or SimulatedProvider()
        self.cache_enabled = cache_enabled
        #: Tenant namespace stamped into every cache key this service makes.
        #: ``""`` (the default) is the single-tenant identity and leaves key
        #: digests exactly as they were before namespaces existed.
        self.namespace = namespace
        #: Optional cross-service :class:`CoalesceHub` for multi-tenant
        #: serving: services sharing one provider object deduplicate
        #: identical in-flight provider requests through it while keeping
        #: their ledgers and namespaced caches fully isolated.
        self.coalesce_hub = coalesce_hub
        self.max_calls = max_calls
        self.max_cost = max_cost
        self.policy = policy or ResiliencePolicy(
            retry=RetryPolicy(
                max_retries=max_retries,
                backoff_seconds=backoff_seconds,
                jitter=DEFAULT_RETRY_JITTER,
            )
        )
        self.clock = clock or VirtualClock()
        self.records: list[CallRecord] = []
        if cache is None:
            cache = PromptCache(path=cache_path)
        elif cache_path is not None:
            raise ValueError("pass cache= or cache_path=, not both")
        self.cache = cache
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._inflight: dict[CacheKey, threading.Event] = {}
        # clear_cache() bumps the epoch; provider responses already in
        # flight when it fired must not repopulate the fresh cache.
        self._cache_epoch = 0
        self.coalesced_calls = 0
        self.breakers = self._build_breakers()
        self.obs = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Attach a :class:`repro.obs.Observability` hub to this service.

        Wires the metrics registry into the prompt cache and every circuit
        breaker; ledger records are published via :meth:`_record`.  The
        observability path never alters what the service answers or
        ledgers — it only mirrors.
        """
        self.obs = obs
        self.cache.metrics = obs.metrics
        journal = getattr(self.cache, "journal", None)
        if journal is not None and journal.corrupt_lines:
            # The cache journal loads at construction, before observability
            # exists, so damaged lines it truncated are surfaced here — the
            # same signal the run journals emit for torn tails.
            obs.metrics.counter("cache.journal_corrupt_lines").inc(
                journal.corrupt_lines
            )
            if obs.tracer.enabled:
                obs.tracer.add_span(
                    "torn-tail[cache-journal]",
                    kind="event",
                    start=float(self.clock.now),
                    lines=journal.corrupt_lines,
                    journal="cache",
                )
        for breaker in self.breakers:
            if breaker is not None:
                breaker.metrics = obs.metrics

    def _cache_key(self, prompt: str, max_tokens: int, version: str) -> CacheKey:
        return CacheKey(
            provider=self.provider.cache_identity(),
            version=version,
            prompt=prompt,
            max_tokens=max_tokens,
            namespace=self.namespace,
        )

    def _hub(self) -> "CoalesceHub | None":
        """The coalesce hub, iff this service's provider is the hub's.

        Identity (``is``), not equality: a job that wraps the shared
        provider in its own chaos/fault injector must bypass the hub —
        its faults are private to that job and sharing its responses (or
        serving it another tenant's clean response) would corrupt both
        ledgers.
        """
        hub = self.coalesce_hub
        if hub is not None and hub.provider is self.provider:
            return hub
        return None

    def _provider_chain(self) -> list[LLMProvider]:
        chain = [self.provider]
        if self.policy.fallback is not None:
            chain.extend(self.policy.fallback.providers)
        return chain

    def _build_breakers(self) -> list[CircuitBreaker | None]:
        """One breaker per provider: the policy's for the primary, clones after."""
        if self.policy.breaker is None:
            return [None for _ in self._provider_chain()]
        breakers: list[CircuitBreaker | None] = [self.policy.breaker]
        breakers.extend(
            self.policy.breaker.clone() for _ in self._provider_chain()[1:]
        )
        return breakers

    # -- virtual clock -----------------------------------------------------------

    @property
    def clock_seconds(self) -> float:
        """Accumulated virtual time (latency + retry/cooldown waits)."""
        return self.clock.now

    @clock_seconds.setter
    def clock_seconds(self, value: float) -> None:
        self.clock.now = value

    # -- worker scopes -----------------------------------------------------------

    @contextmanager
    def scoped(self, base: float | None = None) -> Iterator[CallScope]:
        """Buffer this thread's ledger records and clock advances.

        The scheduler wraps each record chunk in a scope so that calls made
        concurrently do not interleave in the shared ledger; scopes are
        merged afterwards in deterministic chunk order.  The shadow clock
        starts at ``base`` (default: the shared clock's current value), so
        every chunk of one operator observes the same virtual start time
        regardless of worker count.
        """
        if getattr(self._tls, "scope", None) is not None:
            raise RuntimeError("LLMService scopes do not nest")
        if base is None:
            base = self.clock.now
        scope = CallScope(base=base, clock=VirtualClock(base))
        self._tls.scope = scope
        try:
            yield scope
        finally:
            self._tls.scope = None

    def merge_scope(self, scope: CallScope) -> None:
        """Fold a finished scope into the shared ledger and clock."""
        with self._lock:
            self.records.extend(scope.records)
            self.clock.advance(scope.elapsed)

    def rollback_scope(self, scope: CallScope) -> int:
        """Undo an abandoned scope's cache inserts; returns entries removed.

        The streaming executor calls this instead of :meth:`merge_scope`
        when a shard attempt fails (an operator raised): its ledger
        records are discarded with the scope, but the exact-tier entries
        its provider calls created would otherwise survive — and
        the shard's *retry* would then find its own half-done answers
        cached, making the disturbed run cheaper than an undisturbed one
        instead of byte-identical.  Only entries this scope created are
        removed (refreshes of pre-existing entries are never tracked), so
        rollback cannot evict warm-start state.
        """
        removed = 0
        with self._lock:
            for key in scope.cache_keys:
                if self.cache.remove(key):
                    removed += 1
            scope.cache_keys.clear()
            scope.records.clear()
        return removed

    def _scope(self) -> CallScope | None:
        return getattr(self._tls, "scope", None)

    def _active_clock(self) -> VirtualClock:
        scope = self._scope()
        return scope.clock if scope is not None else self.clock

    def _record(self, record: CallRecord) -> None:
        if self.obs is not None:
            self._publish_record(record)
        scope = self._scope()
        if scope is not None:
            scope.records.append(record)
            return
        with self._lock:
            self.records.append(record)

    def _publish_record(self, record: CallRecord) -> None:
        """Mirror one ledger record into the attached metrics registry."""
        # Deferred: repro.obs imports repro.llm.cache, so a module-level
        # import here would be circular through the repro.llm package.
        from repro.obs.metrics import DEFAULT_TOKEN_BUCKETS

        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        metrics.counter("llm.records").inc()
        metrics.counter(f"llm.provenance.{record.provenance}").inc()
        metrics.counter(f"llm.outcome.{record.outcome}").inc()
        if record.retries:
            metrics.counter("llm.retries").inc(record.retries)
        metrics.counter("llm.cost").inc(record.cost)
        metrics.counter("llm.prompt_tokens").inc(record.prompt_tokens)
        metrics.counter("llm.completion_tokens").inc(record.completion_tokens)
        metrics.histogram("llm.latency_seconds").observe(record.latency_seconds)
        metrics.histogram("llm.prompt_tokens.dist", DEFAULT_TOKEN_BUCKETS).observe(
            record.prompt_tokens
        )

    # -- core API --------------------------------------------------------------

    def complete(
        self,
        prompt: str,
        purpose: str = "",
        max_tokens: int = 256,
        version: str = _NO_VERSION,
    ) -> str:
        """Answer ``prompt``; returns the response text.

        Raises :class:`BudgetExceededError` when the call would exceed the
        configured budget, :class:`CircuitOpenError` when the breaker
        refuses the call, and :class:`ProviderError` when every provider and
        retry is exhausted.  Failed calls are still recorded in the ledger
        with their resilience outcome.

        Concurrent callers asking the identical versioned key are
        **coalesced** (cache enabled only): one caller leads, the rest wait
        and are answered as cache hits.  A leader failure releases the
        followers, who then retry leadership one at a time — so per-prompt
        provider attempts stay sequential and deterministic even under
        heavy concurrency.
        """
        if not self.cache_enabled:
            return self._complete_uncached(prompt, purpose, max_tokens, version, None)
        cache_key = self._cache_key(prompt, max_tokens, version)
        while True:
            leader_gate: threading.Event | None = None
            with self._lock:
                cached = self.cache.get(cache_key)
                if cached is None:
                    leader_gate = self._inflight.get(cache_key)
                    if leader_gate is None:
                        self._inflight[cache_key] = threading.Event()
            if cached is not None:
                self._record(
                    self._cached_record(
                        cached,
                        prompt,
                        purpose,
                        max_tokens=max_tokens,
                        version=version,
                    )
                )
                return cached.text
            if leader_gate is None:
                break  # this thread leads the provider call
            with self._lock:
                self.coalesced_calls += 1
            if self.obs is not None:
                self.obs.metrics.counter("llm.coalesced").inc()
            leader_gate.wait()
            # Re-check: the leader either cached a response (-> hit) or
            # failed (-> compete to become the next leader).
        try:
            return self._complete_uncached(
                prompt, purpose, max_tokens, version, cache_key
            )
        finally:
            with self._lock:
                gate = self._inflight.pop(cache_key, None)
            if gate is not None:
                gate.set()

    def _cached_record(
        self,
        response: LLMResponse,
        prompt: str,
        purpose: str,
        max_tokens: int = 256,
        version: str = _NO_VERSION,
    ) -> CallRecord:
        return CallRecord(
            prompt=prompt,
            response_text=response.text,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            cost=0.0,
            cached=True,
            skill=response.skill,
            purpose=purpose,
            latency_seconds=0.0,
            outcome=OUTCOME_CACHED,
            provenance=PROVENANCE_CACHE_EXACT,
            max_tokens=max_tokens,
            version=version,
            model=response.model,
        )

    def _cache_put(self, key: CacheKey, response: LLMResponse, epoch: int) -> None:
        """Insert unless :meth:`clear_cache` fired after this call started.

        ``epoch`` is the value of ``_cache_epoch`` observed when the call
        began; a mismatch means someone cleared the cache while the answer
        was in flight, and inserting it would resurrect exactly what the
        clear was meant to drop.
        """
        with self._lock:
            if epoch != self._cache_epoch:
                return
            scope = self._scope()
            if scope is not None and not self.cache.peek(key):
                scope.cache_keys.append(key)
            self.cache.put(key, response)

    def _complete_uncached(
        self,
        prompt: str,
        purpose: str,
        max_tokens: int,
        version: str,
        cache_key: CacheKey | None,
    ) -> str:
        """Provider path: budget check, resilient call, record, cache.

        ``cache_key`` is the key :meth:`complete` already built for this
        call (``None`` with the cache disabled: nothing is stored).
        """
        self._check_budget()
        with self._lock:
            epoch = self._cache_epoch
        request = LLMRequest(prompt=prompt, max_tokens=max_tokens)
        hub = self._hub()
        if hub is not None:
            response, outcome, retries = self._complete_via_hub(hub, request, purpose)
        else:
            response, outcome, retries = self._complete_resilient(request, purpose)
        cost = estimate_cost(response.prompt_tokens, response.completion_tokens)
        self._active_clock().advance(response.latency_seconds)
        self._record(
            CallRecord(
                prompt=prompt,
                response_text=response.text,
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
                cost=cost,
                cached=False,
                skill=response.skill,
                purpose=purpose,
                latency_seconds=response.latency_seconds,
                retries=retries,
                outcome=outcome,
                max_tokens=max_tokens,
                version=version,
                model=response.model,
            )
        )
        if cache_key is not None:
            self._cache_put(cache_key, response, epoch)
        return response.text

    def _complete_via_hub(
        self, hub: "CoalesceHub", request: LLMRequest, purpose: str
    ) -> tuple[LLMResponse, str, int]:
        """One provider call routed through the cross-service hub.

        Claims leadership of the request's hub slot; a hit returns another
        service's settled answer (recorded by the caller exactly as a
        provider call — tenant ledgers never betray who actually paid), a
        wait blocks on the current leader and re-claims, and a lead pays
        the provider and publishes the result if it is shareable (a clean
        first-attempt success — precisely what a solo caller would have
        recorded, which is what keeps tenant reports byte-identical to
        their direct runs).
        """
        while True:
            status, settled = hub.claim(request)
            if status == "hit":
                self._note_hub_share(hub)
                return settled
            if status == "wait":
                settled.wait()
                continue
            try:
                result = self._complete_resilient(request, purpose)
            except BaseException:
                hub.publish(request, None)
                raise
            _response, outcome, retries = result
            shareable = outcome == OUTCOME_SERVED and retries == 0
            hub.publish(request, result if shareable else None)
            return result

    def _note_hub_share(self, hub: "CoalesceHub") -> None:
        hub.note_shared()
        if self.obs is not None:
            self.obs.metrics.counter("llm.hub_shared").inc()

    # -- batched provider path ----------------------------------------------------

    def prime(
        self,
        prompts: Sequence[str],
        purpose: str = "",
        max_tokens: int = 256,
        version: str = _NO_VERSION,
        answers: dict[str, str] | None = None,
    ) -> int:
        """Warm the cache for ``prompts`` via one batched provider call.

        The cache is consulted first: prompts with a cached answer never
        enter the provider batch (the chunk-prefetch path rides on this,
        so a warm run primes nothing).  The remaining distinct
        not-in-flight prompts are submitted together through
        :meth:`LLMProvider.complete_batch` (N prompts per call instead of
        N calls).  Best effort: a batch failure is swallowed so per-item
        calls can retry with the full resilience policy.  Returns the
        number of prompts served.

        ``answers`` is an out-parameter: it receives ``prompt -> response
        text`` for exactly the prompts this call paid for (and ledgered
        as provider calls), so the caller can give each answer to the
        record that asked for it instead of calling :meth:`complete` for
        what would be an immediate cache hit.  Prompts skipped as cached
        or in flight, and prompts the batch gave up on, are not in it.
        Each paid prompt counts one cache miss — the lookup that found it
        absent used :meth:`PromptCache.peek`, which counts nothing.
        """
        if not self.cache_enabled:
            return 0
        batch: list[tuple[CacheKey, str]] = []
        # One gate for the whole batch: its keys are released together.
        gate = threading.Event()
        with self._lock:
            epoch = self._cache_epoch
            for prompt in prompts:
                key = self._cache_key(prompt, max_tokens, version)
                # Every key this batch holds is in ``_inflight`` from the
                # moment it joins, so this is also the duplicate test.
                if key in self._inflight or self.cache.peek(key):
                    continue
                self._inflight[key] = gate
                batch.append((key, prompt))
        if not batch:
            return 0
        served = 0
        try:
            requests = [
                LLMRequest(prompt=prompt, max_tokens=max_tokens)
                for _, prompt in batch
            ]
            hub = self._hub()
            if hub is None:
                try:
                    self._check_budget()
                    responses = self._batch_resilient(requests)
                except LLMError:
                    responses = None
                results: list[tuple[LLMResponse, str, int] | None] = (
                    list(responses)
                    if responses is not None
                    else [None] * len(batch)
                )
            else:
                results = self._prime_via_hub(hub, requests)
            if any(result is not None for result in results):
                clock = self._active_clock()
                for (key, prompt), result in zip(batch, results):
                    if result is None:
                        continue
                    response, outcome, retries = result
                    cost = estimate_cost(
                        response.prompt_tokens, response.completion_tokens
                    )
                    clock.advance(response.latency_seconds)
                    self._record(
                        CallRecord(
                            prompt=prompt,
                            response_text=response.text,
                            prompt_tokens=response.prompt_tokens,
                            completion_tokens=response.completion_tokens,
                            cost=cost,
                            cached=False,
                            skill=response.skill,
                            purpose=purpose,
                            latency_seconds=response.latency_seconds,
                            retries=retries,
                            outcome=outcome,
                            max_tokens=max_tokens,
                            version=version,
                            model=response.model,
                        )
                    )
                    self._cache_put(key, response, epoch)
                    if answers is not None:
                        answers[prompt] = response.text
                    served += 1
                self.cache.count_misses(served)
        finally:
            with self._lock:
                for key, _ in batch:
                    self._inflight.pop(key, None)
            gate.set()
        return served

    def _prime_via_hub(
        self, hub: "CoalesceHub", requests: list[LLMRequest]
    ) -> list[tuple[LLMResponse, str, int] | None]:
        """Resolve a prime batch through the cross-service hub.

        Each request is claimed individually: settled answers are shared
        immediately, and the slots this service wins are paid for with
        **one** batched provider call whose shareable results (clean
        first-attempt successes) are published back.  Contested slots are
        waited on only *after* every led slot has been published — a
        leader never blocks while still holding unpublished slots, so two
        services whose prime batches overlap in different prompt orders
        cannot deadlock on each other (no hold-and-wait).  Returns
        results aligned with ``requests``; a ``None`` entry means the
        batch path gave up on that prompt and per-item calls should retry
        it with the full resilience policy.
        """
        results: list[tuple[LLMResponse, str, int] | None] = [None] * len(requests)
        pending = list(range(len(requests)))
        while pending:
            leads: list[int] = []
            contested: list[tuple[int, threading.Event]] = []
            for index in pending:
                status, settled = hub.claim(requests[index])
                if status == "hit":
                    self._note_hub_share(hub)
                    results[index] = settled
                elif status == "lead":
                    leads.append(index)
                else:
                    contested.append((index, settled))
            if leads:
                try:
                    self._check_budget()
                    responses = self._batch_resilient(
                        [requests[i] for i in leads]
                    )
                except LLMError:
                    responses = None
                except BaseException:
                    for index in leads:
                        hub.publish(requests[index], None)
                    raise
                if responses is None:
                    # Batch path exhausted: release the led slots so
                    # waiters re-compete; these entries stay ``None`` and
                    # per-item calls retry them with full resilience.
                    for index in leads:
                        hub.publish(requests[index], None)
                else:
                    for index, result in zip(leads, responses):
                        results[index] = result
                        _response, outcome, retries = result
                        shareable = outcome == OUTCOME_SERVED and retries == 0
                        hub.publish(
                            requests[index], result if shareable else None
                        )
            for _index, gate in contested:
                gate.wait()
            pending = [index for index, _gate in contested]
        return results

    def _batch_resilient(
        self, requests: list[LLMRequest]
    ) -> list[tuple[LLMResponse, str, int]] | None:
        """One retried ``complete_batch`` against the primary provider.

        Returns ``None`` when the batch path is exhausted (callers fall
        back to per-prompt resilient calls); never raises provider errors.
        """
        clock = self._active_clock()
        for attempt in range(self.policy.retry.max_retries + 1):
            try:
                responses = self.provider.complete_batch(requests)
            except RateLimitError as error:
                wait = error.retry_after
            except ProviderError:
                wait = self.policy.retry.delay(attempt, key=requests[0].prompt)
            else:
                outcome = OUTCOME_SERVED if attempt == 0 else OUTCOME_RETRIED
                return [(response, outcome, attempt) for response in responses]
            if attempt >= self.policy.retry.max_retries:
                return None
            clock.advance(wait)
        return None

    def complete_many(
        self,
        prompts: Sequence[str],
        purpose: str = "",
        max_tokens: int = 256,
        version: str = _NO_VERSION,
    ) -> list[str]:
        """Answer many prompts, batching the distinct uncached ones.

        One batched provider request pays for the distinct uncached
        prompts and each answer goes to the first occurrence of its
        prompt; every other prompt — cached, repeated, or given up on by
        the batch — is a :meth:`complete` call with its per-prompt
        semantics (ledger record, errors, resilience).  The ledger is the
        one a prefetched ``MapModule`` chunk over the same prompts leaves.
        """
        answers: dict[str, str] = {}
        self.prime(
            prompts,
            purpose=purpose,
            max_tokens=max_tokens,
            version=version,
            answers=answers,
        )
        texts: list[str] = []
        for prompt in prompts:
            text = answers.pop(prompt, None)
            if text is None:
                text = self.complete(
                    prompt, purpose=purpose, max_tokens=max_tokens, version=version
                )
            texts.append(text)
        return texts

    def record_distilled(
        self,
        prompt: str,
        text: str,
        purpose: str = "",
        skill: str = "distilled",
        latency: float = 0.0,
    ) -> None:
        """Ledger a zero-cost answer produced by a distilled local model.

        The distillation router (:mod:`repro.core.optimizer.distill`) calls
        this for every record it answers instead of the provider, so the
        ledger stays a complete account of *every* answered prompt with
        provenance ``distilled``.  Scope-aware like any other record.
        ``latency`` (virtual seconds the local model charged, default 0)
        advances the active clock and lands in the record's
        ``latency_seconds`` — surfaced downstream as ``distilled_seconds``,
        never folded into provider time.
        """
        if latency:
            self._active_clock().advance(latency)
        self._record(
            CallRecord(
                prompt=prompt,
                response_text=text,
                prompt_tokens=count_tokens(prompt),
                completion_tokens=count_tokens(text),
                cost=0.0,
                cached=True,
                skill=skill,
                purpose=purpose,
                latency_seconds=latency,
                outcome=OUTCOME_CACHED,
                provenance=PROVENANCE_DISTILLED,
            )
        )

    def restore_from_records(self, records: Iterable[CallRecord]) -> int:
        """Re-warm the exact cache tier from replayed ledger records.

        The checkpoint runtime calls this before re-executing any live
        chunk: every answer a completed chunk *paid for* (provider calls,
        including retried/fallback ones) must be back in the cache first,
        or a live chunk that originally hit the cache would re-pay the
        provider and the resumed ledger would no longer be byte-identical
        to an uninterrupted run.

        Cache hits are deliberately skipped: their backing entry is
        restored by whichever provider record originally created it, and
        re-inserting from a hit would also resurrect entries that predate
        the run.  Returns the number of entries inserted.
        """
        if not self.cache_enabled:
            return 0
        inserted = 0
        with self._lock:
            epoch = self._cache_epoch
        for record in records:
            if not record.succeeded:
                continue
            if record.cached:
                continue
            response = LLMResponse(
                text=record.response_text,
                prompt_tokens=record.prompt_tokens,
                completion_tokens=record.completion_tokens,
                model=record.model,
                skill=record.skill,
                latency_seconds=record.latency_seconds,
            )
            key = self._cache_key(record.prompt, record.max_tokens, record.version)
            self._cache_put(key, response, epoch)
            inserted += 1
        return inserted

    def _complete_resilient(
        self, request: LLMRequest, purpose: str
    ) -> tuple[LLMResponse, str, int]:
        """Walk the provider chain under the resilience policy.

        Returns ``(response, outcome, retries)`` on success; on exhaustion
        records a failure ledger entry and raises.
        """
        policy = self.policy
        # Keyed on the prompt (not a shared call counter) so the jitter
        # schedule is deterministic regardless of thread arrival order.
        call_key = request.prompt
        clock = self._active_clock()
        started = clock.now
        last_error: ProviderError | None = None
        saw_open = False
        chain = self._provider_chain()

        for p_index, provider in enumerate(chain):
            breaker = self.breakers[p_index] if p_index < len(self.breakers) else None
            if breaker is not None and not breaker.allow(clock.now):
                if p_index < len(chain) - 1:
                    saw_open = True  # divert to the next provider immediately
                    continue
                # Last provider: block (in virtual time) until the breaker
                # would allow a half-open probe, bounded by the deadline.
                wait = breaker.remaining(clock.now)
                if policy.deadline is not None:
                    wait = policy.deadline.clamp(wait, clock.now - started)
                clock.advance(wait)
                if not breaker.allow(clock.now):
                    saw_open = True
                    continue
            for attempt in range(policy.retry.max_retries + 1):
                try:
                    response = provider.complete(request)
                except RateLimitError as error:
                    last_error = error
                    wait = error.retry_after
                except ProviderError as error:
                    last_error = error
                    wait = policy.retry.delay(attempt, key=call_key)
                else:
                    if breaker is not None:
                        breaker.record_success(clock.now)
                    if p_index == 0:
                        outcome = OUTCOME_SERVED if attempt == 0 else OUTCOME_RETRIED
                    else:
                        outcome = OUTCOME_FALLBACK
                    return response, outcome, attempt
                if breaker is not None:
                    breaker.record_failure(clock.now)
                if attempt >= policy.retry.max_retries:
                    break
                elapsed = clock.now - started
                if policy.deadline is not None:
                    if policy.deadline.exhausted(elapsed):
                        break
                    wait = policy.deadline.clamp(wait, elapsed)
                clock.advance(wait)
                if breaker is not None and not breaker.allow(clock.now):
                    break  # opened mid-storm: stop hammering this provider

        if policy.fallback is not None and policy.fallback.degraded is not None:
            text = policy.fallback.degraded(request)
            response = LLMResponse(
                text=text,
                prompt_tokens=count_tokens(request.prompt),
                completion_tokens=count_tokens(text),
                model="degraded",
                skill="degraded",
                latency_seconds=0.0,
            )
            return response, OUTCOME_FALLBACK, 0

        outcome = (
            OUTCOME_CIRCUIT_OPEN
            if saw_open and last_error is None
            else OUTCOME_GAVE_UP
        )
        self._record(
            CallRecord(
                prompt=request.prompt,
                response_text="",
                prompt_tokens=0,
                completion_tokens=0,
                cost=0.0,
                cached=False,
                skill="",
                purpose=purpose,
                latency_seconds=0.0,
                retries=policy.retry.max_retries if last_error is not None else 0,
                outcome=outcome,
                max_tokens=request.max_tokens,
            )
        )
        if outcome == OUTCOME_CIRCUIT_OPEN:
            raise CircuitOpenError(
                "circuit breaker open: call refused without reaching a provider"
            )
        raise ProviderError(
            f"provider failed after {policy.retry.max_retries + 1} attempts "
            f"across {len(chain)} provider(s): {last_error}"
        )

    def _check_budget(self) -> None:
        # Budget checks read the merged ledger; records still buffered in
        # unfinished worker scopes are not yet visible, so under heavy
        # parallelism a budget may be overshot by up to one in-flight wave.
        with self._lock:
            if self.max_calls is not None and self.served_calls >= self.max_calls:
                raise BudgetExceededError(
                    f"call budget exhausted ({self.served_calls}/{self.max_calls})"
                )
            if self.max_cost is not None and self.total_cost >= self.max_cost:
                raise BudgetExceededError(
                    f"cost budget exhausted "
                    f"(${self.total_cost:.4f}/${self.max_cost:.4f})"
                )

    # -- accounting --------------------------------------------------------------

    @property
    def served_calls(self) -> int:
        """Successful calls that hit a provider (excludes cache hits/failures)."""
        return sum(1 for r in self.records if not r.cached and r.succeeded)

    @property
    def cached_calls(self) -> int:
        """Calls answered from the local cache."""
        return sum(1 for r in self.records if r.cached)

    @property
    def failed_calls(self) -> int:
        """Calls that exhausted the resilience policy (gave_up/circuit_open)."""
        return sum(1 for r in self.records if not r.succeeded)

    @property
    def distilled_calls(self) -> int:
        """Calls answered by a distilled local model."""
        return sum(1 for r in self.records if r.provenance == PROVENANCE_DISTILLED)

    @property
    def total_cost(self) -> float:
        """Accumulated dollar cost."""
        return sum(r.cost for r in self.records)

    def usage(self, purpose: str | None = None) -> UsageSummary:
        """Aggregate usage, optionally filtered to one ``purpose`` label."""
        with self._lock:
            records: Iterable[CallRecord] = list(self.records)
        if purpose is not None:
            records = [r for r in records if r.purpose == purpose]
        records = list(records)
        return UsageSummary(
            total_calls=len(records),
            served_calls=sum(1 for r in records if not r.cached and r.succeeded),
            cached_calls=sum(1 for r in records if r.cached),
            prompt_tokens=sum(r.prompt_tokens for r in records),
            completion_tokens=sum(r.completion_tokens for r in records),
            cost=sum(r.cost for r in records),
            latency_seconds=sum(r.latency_seconds for r in records),
            retries=sum(r.retries for r in records),
            fallback_calls=sum(1 for r in records if r.outcome == OUTCOME_FALLBACK),
            failed_calls=sum(1 for r in records if not r.succeeded),
            distilled_calls=sum(
                1 for r in records if r.provenance == PROVENANCE_DISTILLED
            ),
            cache_evictions=self.cache.stats.evictions,
            # float(): an empty generator sums to int 0, which would render
            # as "0" instead of "0.0" in canonical report JSON.
            provider_seconds=float(
                sum(r.latency_seconds for r in records if not r.cached)
            ),
            distilled_seconds=float(
                sum(
                    r.latency_seconds
                    for r in records
                    if r.provenance == PROVENANCE_DISTILLED
                )
            ),
        )

    def ledger_table(self):
        """The call ledger as a :class:`repro.storage.table.Table`.

        Lets the usage data flow through the same tooling as any other
        table — SQL over your LLM spend, profiling, the UI's table views.
        """
        from repro.storage.table import Table

        return Table.from_records(
            "llm_ledger",
            [
                {
                    "purpose": r.purpose,
                    "skill": r.skill,
                    "cached": r.cached,
                    "provenance": r.provenance,
                    "outcome": r.outcome,
                    "prompt_tokens": r.prompt_tokens,
                    "completion_tokens": r.completion_tokens,
                    "cost": r.cost,
                    "latency_seconds": r.latency_seconds,
                    "retries": r.retries,
                }
                for r in self.records
            ],
        )

    def reset_usage(self) -> None:
        """Clear the ledger and virtual clock (cache is kept)."""
        with self._lock:
            self.records.clear()
            self.clock.reset()

    def clear_cache(self) -> None:
        """Drop all cached responses (and the journal contents).

        Bumps the cache epoch so provider answers already in flight when
        the clear fired do not repopulate the fresh cache — a ``complete``
        after ``clear_cache`` always re-asks the provider, even when the
        clear raced an in-flight call for the same prompt.
        """
        with self._lock:
            self._cache_epoch += 1
            self.cache.clear()


class CoalesceHub:
    """Cross-service request coalescing for one shared provider.

    The multi-tenant serving layer gives every job its own
    :class:`LLMService` (own ledger, own virtual clock, own namespaced
    cache) so tenant runs stay byte-identical to direct runs — but all of
    those services front the *same* provider object, and tenants routinely
    ask identical prompts.  The hub deduplicates those at the provider
    boundary: requests are keyed namespace-free on ``(prompt, max_tokens)``,
    the first service to claim a slot leads the provider call, and a clean
    first-attempt success (``OUTCOME_SERVED``, zero retries) is settled
    into the hub for every later claimant.  Followers record full
    provider-style ledger entries — same cost, same latency — so per-tenant
    billing and reports are indistinguishable from having paid themselves;
    only the provider's call count (and :attr:`shared_calls`) reveals the
    dedup.

    Results that a solo caller would *not* have recorded — retried
    successes, fallbacks, failures — are never settled: the slot is
    released and the next claimant competes to lead.  Services whose
    ``provider`` is not :attr:`provider` (e.g. a job wrapping the shared
    provider in a chaos injector) bypass the hub entirely — see
    :meth:`LLMService._hub`.

    Settled answers are memoized for the hub's lifetime, which makes the
    dedup schedule-independent: across any interleaving of tenant jobs,
    the provider pays at most once per distinct shareable request.  The
    memo is *not* a cache tier — no tenant ledger ever records a hub
    answer as a cache hit — and :meth:`reset` drops it (the serving layer
    resets the hub whenever the shared provider's world changes).
    """

    def __init__(self, provider: LLMProvider):
        self.provider = provider
        self._lock = threading.Lock()
        self._inflight: dict[tuple[str, int], threading.Event] = {}
        self._settled: dict[tuple[str, int], tuple[LLMResponse, str, int]] = {}
        #: Calls answered from another service's settled result.
        self.shared_calls = 0
        #: Slots this hub's claimants paid the provider for and settled.
        self.settled_calls = 0

    @staticmethod
    def _key(request: LLMRequest) -> tuple[str, int]:
        return (request.prompt, request.max_tokens)

    def claim(self, request: LLMRequest):
        """Claim the slot for ``request``.

        Returns ``("hit", result)`` when a settled answer exists,
        ``("wait", event)`` when another claimant is leading (wait on the
        event, then re-claim), or ``("lead", None)`` when the caller now
        leads and **must** eventually :meth:`publish` — on every path,
        including failure — or waiters deadlock.
        """
        key = self._key(request)
        with self._lock:
            settled = self._settled.get(key)
            if settled is not None:
                return ("hit", settled)
            gate = self._inflight.get(key)
            if gate is not None:
                return ("wait", gate)
            self._inflight[key] = threading.Event()
            return ("lead", None)

    def publish(
        self,
        request: LLMRequest,
        result: "tuple[LLMResponse, str, int] | None",
    ) -> None:
        """Settle (or release) a led slot and wake every waiter.

        ``None`` releases without settling — the result was unshareable or
        the call failed — and waiters re-compete for leadership.
        """
        key = self._key(request)
        with self._lock:
            if result is not None and key not in self._settled:
                self._settled[key] = result
                self.settled_calls += 1
            gate = self._inflight.pop(key, None)
        if gate is not None:
            gate.set()

    def note_shared(self) -> None:
        with self._lock:
            self.shared_calls += 1

    def reset(self) -> None:
        """Drop settled results (in-flight slots are left to their leaders)."""
        with self._lock:
            self._settled.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "settled": len(self._settled),
                "inflight": len(self._inflight),
                "shared_calls": self.shared_calls,
                "settled_calls": self.settled_calls,
            }
