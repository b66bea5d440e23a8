"""LLM providers: the pluggable back end of the service layer.

:class:`SimulatedProvider` is the deterministic stand-in for a hosted LLM
API used throughout this reproduction (see DESIGN.md's substitution table).
The seam is :class:`LLMProvider` — a real HTTP-backed provider could be
dropped in without touching anything above this layer.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.llm.errors import ProviderError
from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills import default_skills
from repro.llm.tokenizer import count_tokens

__all__ = [
    "LLMRequest",
    "LLMResponse",
    "LLMProvider",
    "SimulatedProvider",
    "LatencyProvider",
]


@dataclass(frozen=True)
class LLMRequest:
    """A completion request."""

    prompt: str
    max_tokens: int = 256
    metadata: dict[str, Any] = field(default_factory=dict)


class LLMResponse(NamedTuple):
    """A completion response with usage accounting.

    A named tuple: one is built per decoded cache entry and per provider
    answer, and its fields cannot be assigned.
    """

    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str
    skill: str = ""
    latency_seconds: float = 0.0


def _answer_or_error(complete, request: LLMRequest) -> LLMResponse | ProviderError:
    """``complete(request)``, or the :class:`ProviderError` it raised."""
    try:
        return complete(request)
    except ProviderError as error:
        return error


class LLMProvider(ABC):
    """Interface every back end implements."""

    model_name: str = "unknown"

    def cache_identity(self) -> str:
        """Identity string mixed into prompt-cache keys.

        Two providers whose answers are interchangeable must share an
        identity; any behavioural change must change it, or stale answers
        leak across providers.  The model name is the right default —
        wrappers (latency/chaos) inherit their inner model's identity
        because they change *delivery*, not answers.
        """
        return self.model_name

    @abstractmethod
    def complete(self, request: LLMRequest) -> LLMResponse:
        """Serve one completion (may raise :class:`ProviderError`)."""

    def complete_batch(
        self, requests: list[LLMRequest]
    ) -> list[LLMResponse | ProviderError]:
        """Serve many completions in one provider round trip.

        The contract the service relies on: one :class:`LLMResponse` or one
        :class:`ProviderError` per request, in order — an item fails, not
        the batch — and raising fails the whole round trip.  The service
        calls nothing else, so a single call is a batch of one.  The
        default walks :meth:`complete` per request; back ends with a native
        batch endpoint (or per-request connection overhead worth
        amortising, like :class:`LatencyProvider`) override this.
        """
        return [_answer_or_error(self.complete, request) for request in requests]


class SimulatedProvider(LLMProvider):
    """Deterministic skill-routed simulation of a 2023-era instruction LLM.

    Each prompt is answered by the first matching skill against the
    provider's :class:`KnowledgeBase`.  Latency is modelled (not slept) as a
    function of token counts so benchmarks can report realistic timings.
    """

    model_name = "sim-gpt-2023"

    def __init__(self):
        self.knowledge = KnowledgeBase()
        self.skills = default_skills()
        self.calls_served = 0
        self._lock = threading.Lock()

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Route ``request.prompt`` to a skill and answer deterministically."""
        for skill in self.skills:
            if skill.matches(request.prompt):
                text = skill.respond(request.prompt, self.knowledge)
                break
        else:  # pragma: no cover - default_skills ends with a catch-all
            raise ProviderError("no skill matched the prompt")
        prompt_tokens = count_tokens(request.prompt)
        completion_tokens = min(count_tokens(text), request.max_tokens)
        with self._lock:
            self.calls_served += 1
        latency = 0.25 + 0.004 * prompt_tokens + 0.018 * completion_tokens
        return LLMResponse(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            model=self.model_name,
            skill=skill.name,
            latency_seconds=latency,
        )


class LatencyProvider(LLMProvider):
    """Wall-clock latency injection: every round trip really sleeps.

    The simulated provider *models* latency on the virtual clock so
    experiments finish instantly; benchmarks that measure parallel speedup
    need calls that genuinely take time.  Each :meth:`complete` sleeps
    ``seconds``; :meth:`complete_batch` sleeps ``seconds`` once for the
    whole batch — the amortisation a real batch endpoint provides.
    """

    def __init__(self, inner: LLMProvider, seconds: float = 0.05):
        self.inner = inner
        self.model_name = inner.model_name
        self.seconds = seconds
        self.round_trips = 0
        self._lock = threading.Lock()

    def _sleep_once(self) -> None:
        time.sleep(self.seconds)
        with self._lock:
            self.round_trips += 1

    def complete(self, request: LLMRequest) -> LLMResponse:
        """Sleep one round trip, then delegate."""
        self._sleep_once()
        return self.inner.complete(request)

    def complete_batch(
        self, requests: list[LLMRequest]
    ) -> list[LLMResponse | ProviderError]:
        """Sleep one round trip for the whole batch, then delegate each."""
        self._sleep_once()
        return [_answer_or_error(self.inner.complete, request) for request in requests]
