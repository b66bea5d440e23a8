"""The replay provider answers exactly as the simulator did, or fails loudly."""

import time

import pytest

from benchmarks.e2e.__main__ import verify
from benchmarks.e2e.replay import ReplayProvider, Tape, TapeMiss, TapeRecorder
from benchmarks.e2e.workloads import warm_up
from repro.llm.providers import LLMRequest, SimulatedProvider
from repro.llm.service import LLMService


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A tape filled by a real pipeline run, plus the prompts that filled it."""
    import tempfile

    tempfile.tempdir = str(tmp_path_factory.mktemp("ledgers"))
    try:
        prompts = []

        class Spy(SimulatedProvider):
            def complete(self, request):
                prompts.append(request)
                return super().complete(request)

        recorder = TapeRecorder(Spy())
        warm_up(recorder, seed=3)
    finally:
        tempfile.tempdir = None
    return recorder, prompts


def test_replay_equals_simulator_for_every_taped_prompt(recorded):
    recorder, requests = recorded
    assert len(requests) == 50 and len(recorder.tape) == 50
    replay = ReplayProvider(recorder.tape)
    simulator = SimulatedProvider()
    for request in requests:
        assert replay.complete(request) == simulator.complete(request)
    assert replay.calls == replay.round_trips == 50 and replay.tape_misses == 0


def test_identity_matches_the_simulator(recorded):
    recorder, _ = recorded
    simulator = SimulatedProvider()
    for provider in (recorder, ReplayProvider(recorder.tape)):
        assert provider.model_name == simulator.model_name
        assert provider.cache_identity() == simulator.cache_identity()
        # Same identity, same cache keys: journals are interchangeable.
        assert LLMService(provider)._cache_key("p", 256, "") == LLMService(
            simulator
        )._cache_key("p", 256, "")


def test_tape_survives_a_round_trip_through_disk(recorded, tmp_path):
    recorder, _ = recorded
    recorder.tape.save(tmp_path / "tape.json")
    assert Tape.load(tmp_path / "tape.json").entries == recorder.tape.entries


def test_max_tokens_is_part_of_the_key(recorded):
    recorder, requests = recorded
    replay = ReplayProvider(recorder.tape)
    with pytest.raises(TapeMiss):
        replay.complete(LLMRequest(prompt=requests[0].prompt, max_tokens=7))


def test_a_tape_miss_raises_is_not_retried_and_is_counted(recorded):
    recorder, _ = recorded
    replay = ReplayProvider(recorder.tape)
    service = LLMService(replay)
    with pytest.raises(TapeMiss):
        service.complete("a prompt nobody recorded")
    # one attempt: the service's retry policy only covers ProviderError
    assert replay.tape_misses == 1 and replay.calls == 1
    run = {
        "report_digest": "same", "outputs_digest": "same",
        "provider": {"calls": 1, "round_trips": 1, "busy_s": 0.0, "tape_misses": 1},
    }
    reference = {"records": 40, "report_digest": "same", "outputs_digest": "same"}
    checked = verify(run, reference, "er_stream_cold")
    assert checked["failed"] == checked["attempted"] == 40
    assert "tape misses" in checked["problems"][0]


def test_verify_counts_wrong_outputs_and_warm_provider_calls():
    provider = {"calls": 0, "round_trips": 0, "busy_s": 0.0, "tape_misses": 0}
    reference = {"records": 10, "report_digest": "a", "outputs_digest": "b"}
    good = {"report_digest": "a", "outputs_digest": "b", "provider": provider}
    assert verify(good, reference, "er_stream_cold")["failed"] == 0
    assert verify({**good, "quarantined": 2}, reference, "er_stream_cold")["failed"] == 2
    wrong = {**good, "report_digest": "x"}
    assert verify(wrong, reference, "er_stream_cold")["failed"] == 10
    # the warm workload compares outputs, not the (cheaper) report ...
    assert verify(wrong, reference, "er_stream_warm")["failed"] == 0
    # ... and may never reach the provider
    paid = {**good, "provider": {**provider, "calls": 3}}
    assert verify(paid, reference, "er_stream_warm")["failed"] == 10
    assert verify({"error": "Traceback\nBoom", "provider": provider},
                  reference, "curation_batch")["failed"] == 10
    assert verify({**good, "audit_violations": 1}, reference, "serve_fleet")["failed"] == 10


def test_sleep_is_paid_once_per_round_trip(recorded):
    recorder, requests = recorded
    replay = ReplayProvider(recorder.tape, seconds=0.05)
    started = time.perf_counter()
    responses = replay.complete_batch(requests[:20])
    elapsed = time.perf_counter() - started
    assert len(responses) == 20
    assert 0.05 <= elapsed < 0.2  # one sleep, not twenty
    assert replay.round_trips == 1 and replay.calls == 20
    replay.complete(requests[0])
    assert replay.round_trips == 2
    assert replay.busy_seconds >= 0.1
