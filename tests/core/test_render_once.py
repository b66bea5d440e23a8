"""A chunk renders each record's first-attempt prompt once.

``MapModule.apply_chunk`` prefetches (render every prompt, prime the
service in one batch) and then runs the records one by one.  The prompts
prefetch rendered are handed to those runs, so ``build_prompt`` is called
once per record — plus once per validation re-prompt — and never for a
record the wrapper stack does not send to the LLM.  These tests pin the
call counts, the hand-off's scope (one chunk, one thread, one value
object — for the rendered prompt and for the answer prefetch paid for,
see ``test_single_pass.py``) and the error-policy behaviour of a record
whose prompt cannot be rendered.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.modules.base import ErrorPolicy, ModuleExecutionError
from repro.core.modules.cascade import CascadeModule
from repro.core.modules.custom import CustomModule
from repro.core.modules.llm_module import LLMModule, parse_yes_no
from repro.core.modules.mapping import MapModule
from repro.core.optimizer.distill import DistillationRouter
from repro.core.runtime.scheduler import Scheduler
from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse
from repro.llm.service import LLMService

WORKER_COUNTS = (1, 2, 8)


class ScriptedProvider(LLMProvider):
    """Answers ``Yes.`` — or, to a first-attempt prompt ``rejects`` picks out,
    something ``parse_yes_no`` refuses."""

    model_name = "scripted"

    def __init__(self, rejects=lambda prompt: False):
        self.rejects = rejects
        self.batches: list[list[str]] = []
        self.singles: list[str] = []
        self._lock = threading.Lock()

    def _respond(self, request: LLMRequest) -> LLMResponse:
        strict = "Answer strictly" in request.prompt
        text = "Yes." if strict or not self.rejects(request.prompt) else "Hard to say."
        return LLMResponse(text=text, prompt_tokens=5, completion_tokens=1, model="scripted")

    def complete(self, request: LLMRequest) -> LLMResponse:
        with self._lock:
            self.singles.append(request.prompt)
        return self._respond(request)

    def complete_batch(self, requests: list[LLMRequest]) -> list[LLMResponse]:
        with self._lock:
            self.batches.append([request.prompt for request in requests])
        return [self._respond(request) for request in requests]

    @property
    def calls(self) -> int:
        return len(self.singles) + sum(len(batch) for batch in self.batches)


class CountingLLM(LLMModule):
    """An LLM module that notes the strictness of every ``build_prompt`` call."""

    def __init__(self, service: LLMService, **kwargs):
        kwargs.setdefault("parser", parse_yes_no)
        super().__init__("judge", service, "Is the item fine?", **kwargs)
        self.renders: list[int] = []

    def build_prompt(self, value, strictness: int = 0) -> str:
        with self._lock:
            self.renders.append(strictness)
        return super().build_prompt(value, strictness)


def records(n: int, start: int = 0) -> list[dict]:
    return [{"id": i, "score": (i % 10) / 10} for i in range(start, start + n)]


def handoff(module: LLMModule):
    """What ``prefetch`` left on this thread: (rendered prompts, paid answers)."""
    return getattr(module._tls, "rendered", None), getattr(module._tls, "answers", None)


def cached_flags(module: LLMModule) -> list[bool]:
    return [record.cached for record in module.service.records]


class TestRenderCounts:
    def test_cold_chunk_renders_each_record_once(self):
        provider = ScriptedProvider()
        llm = CountingLLM(LLMService(provider))
        outcome = MapModule("map", llm).apply_chunk(records(20))
        assert outcome.outputs == [True] * 20
        assert llm.renders == [0] * 20
        assert [len(batch) for batch in provider.batches] == [20]
        assert provider.singles == []

    def test_warm_chunk_renders_each_record_once(self):
        provider = ScriptedProvider()
        llm = CountingLLM(LLMService(provider))
        mapper = MapModule("map", llm)
        mapper.apply_chunk(records(20))
        del llm.renders[:]
        outcome = mapper.apply_chunk(records(20))  # equal content, new objects
        assert outcome.outputs == [True] * 20
        assert llm.renders == [0] * 20
        assert provider.calls == 20  # nothing new reached the provider

    def test_rejected_first_answers_add_one_render_per_retry(self):
        provider = ScriptedProvider(rejects=lambda prompt: True)
        llm = CountingLLM(LLMService(provider))
        outcome = MapModule("map", llm).apply_chunk(records(12))
        assert outcome.outputs == [True] * 12
        assert llm.validation_retries == 12
        assert sorted(llm.renders) == [0] * 12 + [1] * 12
        assert len(provider.singles) == 12  # the re-prompts, one by one

    def test_cascade_renders_only_the_escalated_items(self):
        provider = ScriptedProvider()
        llm = CountingLLM(LLMService(provider))
        cascade = CascadeModule(
            "cascade", lambda item: item["score"], llm, lower=0.3, upper=0.7
        )
        items = records(30)
        escalated = [item for item in items if cascade.escalates(item)]
        outcome = MapModule("map", cascade).apply_chunk(items)
        assert len(outcome.outputs) == 30
        assert 0 < len(escalated) < 30
        assert llm.renders == [0] * len(escalated)
        assert [len(batch) for batch in provider.batches] == [len(escalated)]
        assert provider.singles == []

    def test_distillation_router_renders_once_per_teacher_call(self):
        # The router does not prefetch (an online learner decides record by
        # record), so its teacher renders on the per-item path alone.
        provider = ScriptedProvider()
        service = LLMService(provider)
        llm = CountingLLM(service)
        router = DistillationRouter(
            "router",
            llm,
            service,
            vectorize=lambda item: np.array([item["score"]]),
            min_samples=10_000,
        )
        outcome = MapModule("map", router).apply_chunk(records(15))
        assert outcome.outputs == [True] * 15
        assert llm.renders == [0] * 15
        assert provider.batches == [] and len(provider.singles) == 15

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_does_not_change_the_counts(self, workers):
        provider = ScriptedProvider(rejects=lambda prompt: True)
        service = LLMService(provider)
        llm = CountingLLM(service)
        outputs = Scheduler(workers=workers, chunk_size=7).run_operator(
            MapModule("map", llm), records(50), service
        )
        assert outputs == [True] * 50
        assert sorted(llm.renders) == [0] * 50 + [1] * 50
        assert sorted(len(batch) for batch in provider.batches) == [1] + [7] * 7


class TestHandOffScope:
    def test_nothing_is_kept_after_the_chunk_returns(self):
        llm = CountingLLM(LLMService(ScriptedProvider()))
        items = records(5)
        MapModule("map", llm).apply_chunk(items)
        assert handoff(llm) == (None, None)
        llm.run(items[0])
        assert llm.renders == [0] * 6
        assert cached_flags(llm) == [False] * 5 + [True]  # asked the service again

    def test_nothing_is_kept_after_the_chunk_raises(self):
        provider = ScriptedProvider(rejects=lambda prompt: '"id": 2,' in prompt)
        llm = CountingLLM(LLMService(provider), max_attempts=1)
        items = records(5)
        with pytest.raises(ModuleExecutionError, match="failed validation"):
            MapModule("map", llm).apply_chunk(items)  # fail policy: record 2 aborts it
        assert llm.renders == [0] * 5
        assert handoff(llm) == (None, None)
        llm.run(items[4])  # rendered and paid for by prefetch, never run
        assert llm.renders == [0] * 6  # must render again
        assert cached_flags(llm) == [False] * 5 + [True]  # and ask the service

    def test_a_replaced_value_is_rendered_again(self):
        provider = ScriptedProvider()
        llm = CountingLLM(LLMService(provider))
        items = records(3)
        llm.prefetch(items)
        try:
            changed = dict(items[0], score=0.99)  # what a copying stage hands on
            llm.run(changed)
            llm.run(dict(items[1]))  # equal content, another object
            llm.run(items[2])  # the very object prefetch saw
            # The answer goes by prompt: the equal copy asked what prefetch
            # paid for, the changed record did not.
            assert list(handoff(llm)[1]) == [llm.build_prompt(items[0])]
        finally:
            llm.drop_prefetched()
        assert llm.renders == [0] * 6
        # The changed record was asked about as it is now, not as prefetched.
        assert [prompt.count('"score": 0.99') for prompt in provider.singles] == [1]
        assert cached_flags(llm) == [False] * 4

    def test_a_prompt_is_handed_over_once(self):
        llm = CountingLLM(LLMService(ScriptedProvider()))
        items = records(1)
        llm.prefetch(items)
        try:
            llm.run(items[0])
            llm.run(items[0])
        finally:
            llm.drop_prefetched()
        assert llm.renders == [0, 0]
        assert cached_flags(llm) == [False, True]  # the second run is a real hit

    def test_another_thread_does_not_see_the_hand_off(self):
        llm = CountingLLM(LLMService(ScriptedProvider()))
        items = records(2)
        llm.prefetch(items)
        try:
            worker = threading.Thread(target=llm.run, args=(items[0],))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert llm.renders == [0] * 3
            assert cached_flags(llm) == [False, False, True]  # it asked the service
            llm.run(items[1])
            assert llm.renders == [0] * 3
            assert len(llm.service.records) == 3  # this thread took its answer
        finally:
            llm.drop_prefetched()


def raises_on(bad):
    def render(value):
        if value == bad:
            raise ValueError(f"cannot render {value!r}")
        return str(value)

    return render


class TestUnrenderableRecord:
    """A record whose prompt cannot be rendered belongs to the error policy."""

    def _llm(self) -> CountingLLM:
        return CountingLLM(LLMService(ScriptedProvider()), render=raises_on("bad"))

    def test_skip_record_quarantines_it_in_a_chunk_as_in_a_run(self):
        values = ["a", "bad", "b"]
        mapper = MapModule("map", self._llm(), error_policy=ErrorPolicy.SKIP_RECORD)
        assert mapper.run(values) == [True, True]
        assert [entry.record for entry in mapper.drain_quarantine()] == ["bad"]

        mapper = MapModule("map", self._llm(), error_policy=ErrorPolicy.SKIP_RECORD)
        outcome = mapper.apply_chunk(values)
        assert outcome.outputs == [True, True]
        assert [entry.record for entry in outcome.quarantine] == ["bad"]
        assert "cannot render 'bad'" in outcome.quarantine[0].error
        provider = mapper.inner.service.provider
        assert [len(batch) for batch in provider.batches] == [2]  # still one round trip

    def test_degrade_hands_it_to_the_fallback(self):
        mapper = MapModule(
            "map",
            self._llm(),
            error_policy=ErrorPolicy.DEGRADE,
            fallback=CustomModule("rules", lambda value: False),
        )
        outcome = mapper.apply_chunk(["a", "bad", "b"])
        assert outcome.outputs == [True, False, True]
        assert outcome.degraded == 1 and outcome.quarantine == []

    def test_fail_raises_what_a_run_raises(self):
        values = ["a", "bad", "b"]
        with pytest.raises(ModuleExecutionError) as from_run:
            MapModule("map", self._llm()).run(values)
        mapper = MapModule("map", self._llm())
        with pytest.raises(ModuleExecutionError) as from_chunk:
            mapper.apply_chunk(values)
        assert isinstance(from_chunk.value.cause, ValueError)
        assert str(from_chunk.value.cause) == "cannot render 'bad'"
        assert str(from_chunk.value) == str(from_run.value)
        assert handoff(mapper.inner) == (None, None)


class CountingRule:
    """``item -> item["score"]``, noting every item it is asked about."""

    def __init__(self):
        self.seen: list = []

    def __call__(self, item) -> float:
        self.seen.append(item)
        return item["score"]


class TestCascadeScoresOnce:
    """The cascade's rule score goes from prefetch to the record that asked."""

    def _cascade(self, rule) -> CascadeModule:
        llm = CountingLLM(LLMService(ScriptedProvider()))
        return CascadeModule("cascade", rule, llm, lower=0.3, upper=0.7)

    def test_a_chunk_scores_each_item_once(self):
        rule = CountingRule()
        cascade = self._cascade(rule)
        items = records(30)
        outcome = MapModule("map", cascade).apply_chunk(items)
        assert len(outcome.outputs) == 30
        assert [item["id"] for item in rule.seen] == list(range(30))
        assert cascade.rule_decisions + cascade.escalations == 30
        assert getattr(cascade._tls, "scored", None) is None

    def test_a_score_is_taken_once_and_only_by_the_object_it_was_made_for(self):
        rule = CountingRule()
        cascade = self._cascade(rule)
        items = records(3)
        cascade.prefetch(items)
        try:
            cascade.run(items[0])  # takes prefetch's score
            cascade.run(items[0])  # scores afresh
            cascade.run(dict(items[1]))  # equal content, another object
        finally:
            cascade.drop_prefetched()
        assert [item["id"] for item in rule.seen] == [0, 1, 2, 0, 1]
        assert handoff(cascade.teacher) == (None, None)  # dropped below as well

    def test_an_unscorable_record_belongs_to_the_error_policy(self):
        values = [{"text": "ab"}, {"nope": 1}, {"text": "abcdefghi"}]

        def mapper() -> MapModule:
            cascade = self._cascade(lambda doc: len(doc["text"]) / 10)
            return MapModule("map", cascade, error_policy=ErrorPolicy.SKIP_RECORD)

        by_run = mapper()
        assert by_run.run(values) == [False, True]
        assert [entry.record for entry in by_run.drain_quarantine()] == [{"nope": 1}]
        outcome = mapper().apply_chunk(values)
        assert outcome.outputs == [False, True]
        assert [entry.record for entry in outcome.quarantine] == [{"nope": 1}]
        assert "'text'" in outcome.quarantine[0].error
