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
- **retries** (a backoff schedule and an optional deadline on the waits —
  see :mod:`repro.resilience`), and
- a **ledger** recording every call with token counts, cost, purpose and
  its resilience ``outcome`` (served / cached / retried / gave_up).

One method reaches the provider, :meth:`LLMService._pay`: one budget
check, one ``complete_batch`` round trip, retries of the items that
failed, one ledger record per prompt.  :meth:`complete` is a cache read
or a batch of one; :meth:`prime` is a batch of the distinct uncached
prompts.

Time is virtual: latency and every retry/cooldown wait are accumulated on a
:class:`~repro.resilience.clock.VirtualClock` rather than slept, so
experiments report realistic latency totals instantly.

The service is **thread safe** and built for the concurrent scheduler
(:mod:`repro.core.runtime.scheduler`):

- identical in-flight prompts are **coalesced** — concurrent duplicates
  wait for the leader's provider call and are answered as cache hits, so a
  prompt is never served twice just because callers raced;
- :meth:`prime` / :meth:`complete_many` pay for N distinct uncached
  prompts with one round trip instead of N, and each answer (or error)
  is handed to the caller that asked (one ledger record per paid
  prompt — a ``cached`` record always means an answer was reused);
- :meth:`scoped` gives a worker thread its own ledger buffer and shadow
  clock so the scheduler can merge per-chunk call records in a
  deterministic order, independent of thread completion order.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro._jsonl import emit_torn_tail
from repro.llm.cache import (
    PROVENANCE_CACHE_EXACT,
    PROVENANCE_DISTILLED,
    PROVENANCE_PROVIDER,
    CacheKey,
    PromptCache,
)
from repro.llm.errors import (
    BudgetExceededError,
    LLMError,
    ProviderError,
    RateLimitError,
)
from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse, SimulatedProvider
from repro.llm.tokenizer import count_tokens, estimate_cost
from repro.resilience.clock import VirtualClock
from repro.resilience.policy import (
    OUTCOME_CACHED,
    OUTCOME_GAVE_UP,
    OUTCOME_RETRIED,
    OUTCOME_SERVED,
    SUCCESS_OUTCOMES,
    Deadline,
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
#: byte-reproducible.  Callers passing an explicit ``retry=`` get that
#: policy's own jitter (``RetryPolicy()`` defaults to ``jitter=0.0``).
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
        if self.retries or self.failed_calls:
            text += f" retries={self.retries} failed={self.failed_calls}"
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
    #: removes them when the scope's operator raises.
    cache_keys: list[CacheKey] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Virtual time this scope accrued beyond its base."""
        return self.clock.now - self.base


class LLMService:
    """Cached, budgeted, resilient front end over an :class:`LLMProvider`.

    ``retry=`` sets the backoff schedule (default: ``RetryPolicy()`` with
    :data:`DEFAULT_RETRY_JITTER`) and ``deadline=`` caps the virtual time
    one paid call may spend waiting between retries (default: no cap).

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
        retry: RetryPolicy | None = None,
        deadline: Deadline | None = None,
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
        self.retry = retry or RetryPolicy(jitter=DEFAULT_RETRY_JITTER)
        self.deadline = deadline
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
        self.obs = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Attach a :class:`repro.obs.Observability` hub to this service.

        Wires the metrics registry into the prompt cache; ledger records
        are published via :meth:`_record`.  The observability path never
        alters what the service answers or ledgers — it only mirrors.
        """
        self.obs = obs
        self.cache.metrics = obs.metrics
        journal = getattr(self.cache, "journal", None)
        if journal is not None:
            # The cache journal loads at construction, before observability
            # exists, so what its load repaired is surfaced here.
            emit_torn_tail(obs, self.clock, journal, "cache-journal")

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

        Both engines call this instead of :meth:`merge_scope` when an
        operator raised (the scheduler for each of the operator's chunk
        scopes, the streaming executor for a failed shard attempt's): the
        ledger records are discarded with the scope, but the exact-tier
        entries its provider calls created would otherwise survive — a
        shard's *retry* would find its own half-done answers cached,
        making the disturbed run cheaper than an undisturbed one, and a
        served job's sibling would hit entries no ledger says were paid
        for.  Only entries this scope created are
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

        A cache read, or :meth:`_pay` for a batch of one.  Raises
        :class:`BudgetExceededError` when the budget is spent and
        :class:`ProviderError` when every retry is exhausted; a failed
        call is still in the ledger with its resilience outcome.

        Concurrent callers asking the identical versioned key are
        **coalesced** (cache enabled only): one caller leads, the rest wait
        and are answered as cache hits.  A leader failure releases the
        followers, who then retry leadership one at a time — so per-prompt
        provider attempts stay sequential and deterministic even under
        heavy concurrency.
        """
        key = self._cache_key(prompt, max_tokens, version)
        gate: threading.Event | None = None
        while self.cache_enabled:
            with self._lock:
                cached = self.cache.get(key)
                leader = None if cached is not None else self._inflight.get(key)
                if cached is None and leader is None:
                    gate = self._inflight[key] = threading.Event()
                    break  # this thread leads the provider call
            if cached is not None:
                self._record(self._cached_record(cached, key, purpose))
                return cached.text
            with self._lock:
                self.coalesced_calls += 1
            if self.obs is not None:
                self.obs.metrics.counter("llm.coalesced").inc()
            leader.wait()
            # Re-check: the leader either cached a response (-> hit) or
            # failed (-> compete to become the next leader).
        try:
            (answer,) = self._pay([key], purpose)
        finally:
            if gate is not None:
                self._release([key], gate)
        if isinstance(answer, LLMError):
            raise answer
        return answer

    def _cached_record(
        self, response: LLMResponse, key: CacheKey, purpose: str
    ) -> CallRecord:
        return CallRecord(
            prompt=key.prompt,
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
            max_tokens=key.max_tokens,
            version=key.version,
            model=response.model,
        )

    def _cache_put(
        self, entries: list[tuple[CacheKey, LLMResponse]], epoch: int
    ) -> None:
        """Insert ``entries`` with one cache call (one journal append),
        unless :meth:`clear_cache` fired after this call started.

        ``epoch`` is the value of ``_cache_epoch`` observed when the call
        began; a mismatch means someone cleared the cache while the answers
        were in flight, and inserting them would resurrect exactly what the
        clear was meant to drop.  The keys the insert created go to the
        active scope, for :meth:`rollback_scope`.
        """
        if not entries:
            return
        with self._lock:
            if epoch != self._cache_epoch:
                return
            created = self.cache.put_many(entries)
            scope = self._scope()
            if scope is not None:
                scope.cache_keys.extend(created)

    def _release(self, keys: list[CacheKey], gate: threading.Event) -> None:
        """Drop ``keys`` from ``_inflight`` and wake whoever waits on them."""
        with self._lock:
            for key in keys:
                self._inflight.pop(key, None)
        gate.set()

    def prime(
        self,
        prompts: Sequence[str],
        purpose: str = "",
        max_tokens: int = 256,
        version: str = _NO_VERSION,
        answers: dict[str, str | LLMError] | None = None,
    ) -> int:
        """Pay for ``prompts``' distinct uncached prompts with one :meth:`_pay`.

        The cache is consulted first: prompts with a cached answer are not
        paid for (the chunk-prefetch path rides on this, so a warm run
        primes nothing), nor are prompts another caller has in flight.
        The rest are held in flight under one gate, paid for together and
        released together.  Returns the number of prompts answered; a
        failure or a spent budget is not raised here.

        ``answers`` is an out-parameter: it receives ``prompt -> response
        text`` for each prompt this call paid for, and ``prompt ->`` the
        :class:`LLMError` :meth:`complete` would have raised for each it
        gave up on (retries exhausted, or the budget spent).  The caller
        gives each to the record that asked — it raises an error where it
        would have called :meth:`complete` — so a prompt gets one retry
        budget and at most one ``gave_up`` record.  Prompts skipped as
        cached or in flight are not in it.  Each prompt asked for counts
        one cache miss — the lookup that found it absent used
        :meth:`PromptCache.peek`, which counts nothing.
        """
        if not self.cache_enabled:
            return 0
        keys: list[CacheKey] = []
        gate = threading.Event()
        with self._lock:
            for prompt in prompts:
                key = self._cache_key(prompt, max_tokens, version)
                # Every key this call holds is in ``_inflight`` from the
                # moment it joins, so this is also the duplicate test.
                if key in self._inflight or self.cache.peek(key):
                    continue
                self._inflight[key] = gate
                keys.append(key)
        if not keys:
            return 0
        try:
            results = self._pay(keys, purpose)
        finally:
            self._release(keys, gate)
        self.cache.count_misses(len(keys))
        if answers is not None:
            answers.update((key.prompt, result) for key, result in zip(keys, results))
        return sum(1 for result in results if isinstance(result, str))

    def complete_many(
        self,
        prompts: Sequence[str],
        purpose: str = "",
        max_tokens: int = 256,
        version: str = _NO_VERSION,
    ) -> list[str]:
        """Answer many prompts, batching the distinct uncached ones.

        :meth:`prime` pays for the distinct uncached prompts and each
        answer or error goes to the first occurrence of its prompt (an
        error is raised there, as :meth:`complete` would have raised it);
        every other prompt — cached or repeated — is a :meth:`complete`
        call.  The ledger is the one a prefetched ``MapModule`` chunk over
        the same prompts leaves.
        """
        answers: dict[str, str | LLMError] = {}
        self.prime(
            prompts,
            purpose=purpose,
            max_tokens=max_tokens,
            version=version,
            answers=answers,
        )
        texts: list[str] = []
        for prompt in prompts:
            answer = answers.pop(prompt, None)
            if answer is None:
                answer = self.complete(
                    prompt, purpose=purpose, max_tokens=max_tokens, version=version
                )
            elif isinstance(answer, LLMError):
                raise answer
            texts.append(answer)
        return texts

    # -- the paid path ---------------------------------------------------------

    def _pay(self, keys: list[CacheKey], purpose: str) -> list[str | LLMError]:
        """The one way to the provider: an answer or an error per key, in order.

        Checks the budget once (a spent budget is a
        :class:`BudgetExceededError` per key and no ledger record), settles
        every key's request (:meth:`_settle`), then writes one ledger
        record per key: a provider record for an answer, or ``gave_up`` for
        a key whose retries ran out, whose error is the
        :class:`ProviderError` :meth:`complete` raises.  The answers are
        cached together, unless the cache is disabled: one insert, one
        journal append per call.
        """
        problem = self._budget_problem()
        if problem is not None:
            return [BudgetExceededError(problem) for _ in keys]
        with self._lock:
            epoch = self._cache_epoch
        requests = [
            LLMRequest(prompt=key.prompt, max_tokens=key.max_tokens) for key in keys
        ]
        responses, attempts = self._settle(requests)
        clock = self._active_clock()
        results: list[str | LLMError] = []
        answered: list[tuple[CacheKey, LLMResponse]] = []
        for key, response, attempt in zip(keys, responses, attempts):
            if isinstance(response, LLMResponse):
                answered.append((key, response))
                clock.advance(response.latency_seconds)
                self._record(
                    CallRecord(
                        prompt=key.prompt,
                        response_text=response.text,
                        prompt_tokens=response.prompt_tokens,
                        completion_tokens=response.completion_tokens,
                        cost=estimate_cost(
                            response.prompt_tokens, response.completion_tokens
                        ),
                        cached=False,
                        skill=response.skill,
                        purpose=purpose,
                        latency_seconds=response.latency_seconds,
                        retries=attempt,
                        outcome=OUTCOME_SERVED if attempt == 0 else OUTCOME_RETRIED,
                        max_tokens=key.max_tokens,
                        version=key.version,
                        model=response.model,
                    )
                )
                results.append(response.text)
                continue
            self._record(
                CallRecord(
                    prompt=key.prompt,
                    response_text="",
                    prompt_tokens=0,
                    completion_tokens=0,
                    cost=0.0,
                    cached=False,
                    skill="",
                    purpose=purpose,
                    latency_seconds=0.0,
                    retries=self.retry.max_retries,
                    outcome=OUTCOME_GAVE_UP,
                    max_tokens=key.max_tokens,
                )
            )
            results.append(
                ProviderError(
                    f"provider failed after {self.retry.max_retries + 1} "
                    f"attempts: {response}"
                )
            )
        if self.cache_enabled:
            self._cache_put(answered, epoch)
        return results

    def _settle(
        self, requests: list[LLMRequest]
    ) -> tuple[list[LLMResponse | ProviderError], list[int]]:
        """Each request's response or last error, and its attempt index.

        Without a hub this is :meth:`_retry`.  Through the hub each
        request claims its slot: a settled answer is shared, the slots this
        call leads are paid for together and published back — shareable
        only as a clean first-attempt success, precisely what a solo caller
        would have recorded, which keeps tenant reports byte-identical to
        their direct runs — and contested slots are waited on only *after*
        every led slot is published.  A leader never blocks while holding
        unpublished slots, so two services whose batches overlap in
        different prompt orders cannot deadlock (no hold-and-wait).
        """
        started = self._active_clock().now
        hub = self._hub()
        if hub is None:
            return self._retry(requests, started)
        responses: list = [None] * len(requests)
        attempts = [0] * len(requests)
        pending = list(range(len(requests)))
        while pending:
            leads: list[int] = []
            contested: list[tuple[int, threading.Event]] = []
            for index in pending:
                status, settled = hub.claim(requests[index])
                if status == "hit":
                    self._note_hub_share(hub)
                    responses[index] = settled
                elif status == "lead":
                    leads.append(index)
                else:
                    contested.append((index, settled))
            if leads:
                try:
                    paid, tries = self._retry([requests[i] for i in leads], started)
                except BaseException:
                    for index in leads:
                        hub.publish(requests[index], None)
                    raise
                for index, response, attempt in zip(leads, paid, tries):
                    responses[index], attempts[index] = response, attempt
                    shareable = isinstance(response, LLMResponse) and attempt == 0
                    hub.publish(requests[index], response if shareable else None)
            for _index, gate in contested:
                gate.wait()
            pending = [index for index, _gate in contested]
        return responses, attempts

    def _retry(
        self, requests: list[LLMRequest], started: float
    ) -> tuple[list[LLMResponse | ProviderError], list[int]]:
        """Round trips until every request is answered or out of retries.

        The first round sends every request; each later round sends only
        the ones that failed, after the longest wait among them — a
        ``RateLimitError``'s ``retry_after``, else the retry policy's delay
        keyed on the prompt — clamped by the deadline, which counts from
        ``started``.  A round trip that raises a :class:`ProviderError`
        failed every request in it; anything else it raises propagates.
        For a batch of one these are the waits, jitter keys and give-up
        point of one call retried on its own.  A retry round sends copies
        stamped ``metadata["attempt"]`` (2, 3, ...); the first round's
        requests go unstamped, which reads as attempt 1.  The attempt is the
        one input besides the prompt a :class:`~repro.llm.faults.ChaosProvider`
        draws on.
        """
        clock = self._active_clock()
        retry, deadline = self.retry, self.deadline
        responses: list = [None] * len(requests)
        attempts = [0] * len(requests)
        pending = list(range(len(requests)))
        for attempt in range(retry.max_retries + 1):
            sent = [requests[i] for i in pending]
            if attempt:
                sent = [
                    replace(r, metadata={**r.metadata, "attempt": attempt + 1})
                    for r in sent
                ]
            try:
                batch = self.provider.complete_batch(sent)
            except ProviderError as error:
                batch = [error] * len(pending)
            failed: list[int] = []
            wait = 0.0
            for index, response in zip(pending, batch):
                responses[index], attempts[index] = response, attempt
                if isinstance(response, RateLimitError):
                    wait = max(wait, response.retry_after)
                elif isinstance(response, ProviderError):
                    wait = max(wait, retry.delay(attempt, key=requests[index].prompt))
                else:
                    continue
                failed.append(index)
            pending = failed
            if not pending or attempt >= retry.max_retries:
                break
            elapsed = clock.now - started
            if deadline is not None:
                if deadline.exhausted(elapsed):
                    break
                wait = deadline.clamp(wait, elapsed)
            clock.advance(wait)
        return responses, attempts

    def _note_hub_share(self, hub: "CoalesceHub") -> None:
        hub.note_shared()
        if self.obs is not None:
            self.obs.metrics.counter("llm.hub_shared").inc()

    def _budget_problem(self) -> str | None:
        """Why the budget refuses another paid call, or ``None``."""
        # Budget checks read the merged ledger; records still buffered in
        # unfinished worker scopes are not yet visible, so under heavy
        # parallelism a budget may be overshot by up to one in-flight wave.
        with self._lock:
            if self.max_calls is not None and self.served_calls >= self.max_calls:
                return f"call budget exhausted ({self.served_calls}/{self.max_calls})"
            if self.max_cost is not None and self.total_cost >= self.max_cost:
                return (
                    f"cost budget exhausted "
                    f"(${self.total_cost:.4f}/${self.max_cost:.4f})"
                )
        return None

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
        including retried ones) must be back in the cache first,
        or a live chunk that originally hit the cache would re-pay the
        provider and the resumed ledger would no longer be byte-identical
        to an uninterrupted run.

        Cache hits are deliberately skipped: their backing entry is
        restored by whichever provider record originally created it, and
        re-inserting from a hit would also resurrect entries that predate
        the run.  The entries go in as one batch (one journal append).
        Returns the number of entries inserted.
        """
        if not self.cache_enabled:
            return 0
        with self._lock:
            epoch = self._cache_epoch
        entries = [
            (
                self._cache_key(record.prompt, record.max_tokens, record.version),
                LLMResponse(
                    text=record.response_text,
                    prompt_tokens=record.prompt_tokens,
                    completion_tokens=record.completion_tokens,
                    model=record.model,
                    skill=record.skill,
                    latency_seconds=record.latency_seconds,
                ),
            )
            for record in records
            if record.succeeded and not record.cached
        ]
        self._cache_put(entries, epoch)
        return len(entries)

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
        """Calls whose retries ran out (``gave_up``)."""
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
    successes, failures — are never settled: the slot is
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
        self._settled: dict[tuple[str, int], LLMResponse] = {}
        #: Calls answered from another service's settled result.
        self.shared_calls = 0
        #: Slots this hub's claimants paid the provider for and settled.
        self.settled_calls = 0

    @staticmethod
    def _key(request: LLMRequest) -> tuple[str, int]:
        return (request.prompt, request.max_tokens)

    def claim(self, request: LLMRequest):
        """Claim the slot for ``request``.

        Returns ``("hit", response)`` when a settled answer exists,
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

    def publish(self, request: LLMRequest, response: LLMResponse | None) -> None:
        """Settle (or release) a led slot and wake every waiter.

        ``None`` releases without settling — the result was unshareable or
        the call failed — and waiters re-compete for leadership.
        """
        key = self._key(request)
        with self._lock:
            if response is not None and key not in self._settled:
                self._settled[key] = response
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
