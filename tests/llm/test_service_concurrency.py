"""Concurrency stress tests for :class:`LLMService`.

Many threads hammer one service at once; the assertions pin down the
thread-safety contract: no lost counter updates, no duplicate provider
calls for coalesced identical prompts, and consistent ledger/usage
accounting.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.llm.errors import LLMError, ProviderError
from repro.llm.providers import (
    LLMProvider,
    LLMRequest,
    LLMResponse,
    SimulatedProvider,
)
from repro.llm.service import LLMService

THREADS = 16


class BlockingProvider(LLMProvider):
    """Deterministic provider that can hold calls open on an event.

    Holding the first call open while follower threads arrive makes the
    coalescing window explicit instead of racing the scheduler for it.
    """

    model_name = "blocking-sim"

    def __init__(self, release: threading.Event | None = None):
        self.release = release
        self._lock = threading.Lock()
        self.calls_served = 0
        self.prompts: list[str] = []

    def complete(self, request: LLMRequest) -> LLMResponse:
        if self.release is not None and not self.release.wait(timeout=10):
            # Fail loud instead of silently proceeding after the deadline:
            # a gate that never opened is a test bug, and continuing would
            # let a broken coalescing window pass as a slow success.
            raise RuntimeError("BlockingProvider release gate never opened")
        with self._lock:
            self.calls_served += 1
            self.prompts.append(request.prompt)
        return LLMResponse(
            text=f"answer:{request.prompt}",
            prompt_tokens=len(request.prompt.split()),
            completion_tokens=2,
            model=self.model_name,
            latency_seconds=0.5,
        )


class FailingProvider(LLMProvider):
    model_name = "failing-sim"

    def __init__(self):
        self._lock = threading.Lock()
        self.attempts = 0

    def complete(self, request: LLMRequest) -> LLMResponse:
        with self._lock:
            self.attempts += 1
        raise ProviderError("always down")


def _hammer(work, n_threads: int = THREADS, per_thread: int = 1):
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [
            pool.submit(work, thread_index)
            for thread_index in range(n_threads)
            for _ in range(per_thread)
        ]
        return [f.result() for f in futures]


class TestCoalescing:
    def test_identical_prompts_share_one_provider_call(self):
        provider = BlockingProvider(release=threading.Event())
        service = LLMService(provider)
        barrier = threading.Barrier(THREADS)

        def work(_):
            barrier.wait()
            if barrier.n_waiting == 0:  # all arrived; let the leader through
                provider.release.set()
            return service.complete("same prompt")

        results = _hammer(work)
        assert set(results) == {"answer:same prompt"}
        assert provider.calls_served == 1
        usage = service.usage()
        assert usage.served_calls == 1
        assert usage.cached_calls == THREADS - 1
        assert usage.total_calls == THREADS

    def test_distinct_prompts_are_not_coalesced(self):
        provider = BlockingProvider()
        service = LLMService(provider)
        results = _hammer(lambda i: service.complete(f"prompt {i}"))
        assert sorted(results) == sorted(f"answer:prompt {i}" for i in range(THREADS))
        assert provider.calls_served == THREADS
        assert service.usage().cached_calls == 0

    def test_mixed_load_serves_each_distinct_prompt_once(self):
        provider = BlockingProvider()
        service = LLMService(provider)
        distinct = 4

        def work(i):
            return service.complete(f"prompt {i % distinct}")

        _hammer(work, n_threads=THREADS, per_thread=4)
        assert provider.calls_served == distinct
        assert sorted(set(provider.prompts)) == [
            f"prompt {i}" for i in range(distinct)
        ]
        usage = service.usage()
        assert usage.total_calls == THREADS * 4
        assert usage.served_calls == distinct

    def test_leader_failure_releases_followers(self):
        service = LLMService(FailingProvider())

        def work(_):
            try:
                service.complete("doomed prompt")
                return "ok"
            except LLMError:
                return "failed"

        results = _hammer(work, n_threads=8)
        # Every caller must terminate (no deadlock on the leader's gate)
        # and see the failure rather than hang or get a bogus answer.
        assert results == ["failed"] * 8


class TestCounterIntegrity:
    def test_no_lost_usage_updates(self):
        provider = SimulatedProvider()
        service = LLMService(provider)
        per_thread = 8

        def work(i):
            for j in range(per_thread):
                service.complete(f"prompt {i}/{j}")

        _hammer(work)
        usage = service.usage()
        assert usage.total_calls == THREADS * per_thread
        assert usage.served_calls == THREADS * per_thread
        assert len(service.records) == THREADS * per_thread
        assert usage.cost == pytest.approx(
            sum(r.cost for r in service.records), abs=1e-12
        )

    def test_ledger_totals_match_usage_under_cache_hits(self):
        service = LLMService(SimulatedProvider())

        def work(i):
            service.complete(f"prompt {i % 3}")

        _hammer(work, per_thread=4)
        usage = service.usage()
        assert usage.served_calls == 3
        assert usage.total_calls == THREADS * 4
        assert usage.cached_calls == usage.total_calls - usage.served_calls

class TestScopedIsolation:
    def test_scopes_keep_private_ledgers(self):
        service = LLMService(SimulatedProvider())
        base = service.clock.now
        scopes = {}
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            with service.scoped(base) as scope:
                service.complete(f"scoped prompt {i}")
            scopes[i] = scope

        _hammer(work, n_threads=4)
        # Nothing lands on the shared ledger until scopes are merged.
        assert service.records == []
        for i in range(4):
            service.merge_scope(scopes[i])
        assert [r.prompt for r in service.records] == [
            f"scoped prompt {i}" for i in range(4)
        ]

    def test_merge_accumulates_elapsed_virtual_time(self):
        service = LLMService(SimulatedProvider())
        base = service.clock.now
        with service.scoped(base) as scope:
            service.complete("timed prompt")
        before = service.clock.now
        service.merge_scope(scope)
        assert service.clock.now == pytest.approx(before + scope.elapsed)


class TestHubPrimeNoHoldAndWait:
    """Regression: a hub batch must publish its led slots before waiting.

    Two services whose prime batches overlapped in different prompt orders
    used to deadlock permanently: each led one hub slot and blocked inline
    on the other's, so neither ever published.  The fix pays for and
    publishes every led slot *before* waiting on contested ones; this test
    pins that ordering deterministically by acting as the foreign leader
    of the contested slot itself.
    """

    class _SignalProvider(BlockingProvider):
        """BlockingProvider that also signals when its first call arrives."""

        def __init__(self):
            super().__init__()
            self.first_call = threading.Event()

        def complete(self, request: LLMRequest) -> LLMResponse:
            self.first_call.set()
            return super().complete(request)

    def test_led_slot_settles_while_contested_slot_still_held(self):
        from repro.llm.service import CoalesceHub

        provider = self._SignalProvider()
        hub = CoalesceHub(provider)
        service = LLMService(provider, coalesce_hub=hub)

        # The test leads slot Y, standing in for another service that is
        # still mid-provider-call when our prime arrives.
        contested = LLMRequest(prompt="Y", max_tokens=256)
        status, _ = hub.claim(contested)
        assert status == "lead"

        done = threading.Event()

        def run_prime():
            service.prime(["X", "Y"])
            done.set()

        thread = threading.Thread(target=run_prime, daemon=True)
        thread.start()

        # The prime reaching the provider proves it got *past* the claim
        # loop with Y still contested (pre-fix it parked on Y's gate there
        # and X never reached the provider at all).
        assert provider.first_call.wait(timeout=30)

        # X must then be published — settled into the hub — while Y is
        # still held by the foreign leader.
        led = LLMRequest(prompt="X", max_tokens=256)
        status, settled = hub.claim(led)
        if status == "wait":
            assert settled.wait(timeout=30)
            status, settled = hub.claim(led)
        assert status == "hit"
        assert settled.text == "answer:X"
        assert not done.is_set()  # prime is (correctly) parked on Y now

        # Release Y unsettled: the prime re-claims, leads and pays for it.
        hub.publish(contested, None)
        assert done.wait(timeout=30)
        thread.join(timeout=30)
        assert sorted(provider.prompts) == ["X", "Y"]
