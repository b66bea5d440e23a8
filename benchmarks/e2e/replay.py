"""Record-and-replay provider: the system without the simulator's CPU.

``SimulatedProvider`` spends ~1.2 ms of pure Python per entity-resolution
prompt (skill routing, ``normalize_text``), which is ten times what the
engine, cache and ledger spend on the same record.  A benchmark that calls
it measures the simulator.  Here the simulator runs once, during set-up,
behind a :class:`TapeRecorder`; every measured run is then answered by a
:class:`ReplayProvider` from that tape at the cost of one hash and one dict
lookup, optionally sleeping a fixed time per round trip the way a hosted
endpoint would.

The replay provider keeps the simulator's ``model_name`` and
``cache_identity()``, so cache keys, journals and run reports are byte
identical to a simulator run — which is what lets the benchmark check every
measured run against the set-up pass's report.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path

from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse, SimulatedProvider

__all__ = ["TapeMiss", "Tape", "TapeRecorder", "ReplayProvider", "tape_key"]


class TapeMiss(LookupError):
    """A measured run asked a prompt the set-up pass never recorded.

    Deliberately not a ``ProviderError``: the service must not retry it,
    degrade it or quarantine the record as a transient outage — the run
    fails and the benchmark counts it.
    """


def tape_key(request: LLMRequest) -> str:
    """``blake2b(prompt)|max_tokens`` — everything the simulator's answer depends on."""
    digest = hashlib.blake2b(request.prompt.encode("utf-8"), digest_size=16).hexdigest()
    return f"{digest}|{request.max_tokens}"


class Tape:
    """Recorded ``tape_key -> LLMResponse`` answers, JSON on disk."""

    def __init__(self, entries: dict[str, LLMResponse] | None = None):
        self.entries: dict[str, LLMResponse] = entries if entries is not None else {}

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path: str | Path) -> None:
        payload = {
            key: [
                r.text,
                r.prompt_tokens,
                r.completion_tokens,
                r.model,
                r.skill,
                r.latency_seconds,
            ]
            for key, r in self.entries.items()
        }
        Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Tape":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            {
                key: LLMResponse(
                    text=row[0],
                    prompt_tokens=row[1],
                    completion_tokens=row[2],
                    model=row[3],
                    skill=row[4],
                    latency_seconds=row[5],
                )
                for key, row in payload.items()
            }
        )


class TapeRecorder(LLMProvider):
    """Answers with ``inner`` (the simulator) and records every answer."""

    def __init__(self, inner: LLMProvider | None = None):
        self.inner = inner if inner is not None else SimulatedProvider()
        self.model_name = self.inner.model_name
        self.tape = Tape()
        self.calls = 0
        self._lock = threading.Lock()

    def cache_identity(self) -> str:
        return self.inner.cache_identity()

    def complete(self, request: LLMRequest) -> LLMResponse:
        response = self.inner.complete(request)
        with self._lock:
            self.calls += 1
            self.tape.entries[tape_key(request)] = response
        return response


class ReplayProvider(LLMProvider):
    """Answers from a :class:`Tape`; a miss raises :class:`TapeMiss`.

    ``seconds`` is slept once per round trip: once per :meth:`complete`,
    once per :meth:`complete_batch` whatever the batch size — the same
    amortisation ``LatencyProvider`` models.  Counters (``calls``,
    ``round_trips``, ``busy_seconds``, ``tape_misses``) are what the
    ``provider.*`` layer metrics read; ``busy_seconds`` is the summed wall
    time spent inside the provider, so ``busy_seconds / wall`` is the mean
    number of round trips in flight.
    """

    model_name = SimulatedProvider.model_name

    def __init__(self, tape: Tape, seconds: float = 0.0):
        self.tape = tape
        self.seconds = seconds
        self.calls = 0
        self.round_trips = 0
        self.busy_seconds = 0.0
        self.tape_misses = 0
        self._lock = threading.Lock()

    def _answer(self, request: LLMRequest) -> LLMResponse:
        response = self.tape.entries.get(tape_key(request))
        if response is None:
            with self._lock:
                self.tape_misses += 1
            raise TapeMiss(
                f"prompt not on tape (max_tokens={request.max_tokens}): "
                f"{request.prompt[:80]!r}"
            )
        return response

    def _round_trip(self, requests: list[LLMRequest]) -> list[LLMResponse]:
        started = time.perf_counter()
        try:
            if self.seconds > 0.0:
                time.sleep(self.seconds)
            return [self._answer(request) for request in requests]
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.calls += len(requests)
                self.round_trips += 1
                self.busy_seconds += elapsed

    def complete(self, request: LLMRequest) -> LLMResponse:
        return self._round_trip([request])[0]

    def complete_batch(self, requests: list[LLMRequest]) -> list[LLMResponse]:
        return self._round_trip(requests)
