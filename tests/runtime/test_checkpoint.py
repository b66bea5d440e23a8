"""Unit tests for the write-ahead run journal (repro.core.runtime.checkpoint).

The crash matrix (test_crash_resume.py) proves the end-to-end contract;
this file pins the parts in isolation: the value codec, torn-tail
recovery, header validation, fingerprint stability and the cache rewind.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.runtime.checkpoint import (
    JOURNAL_FORMAT_VERSION,
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    ReplayedValue,
    RunCheckpoint,
    UnserializableValueError,
    decode_value,
    digest_inputs,
    encode_value,
    fingerprint_payload,
)
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import LLMResponse, SimulatedProvider
from repro.llm.service import LLMService
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples


@pytest.fixture(scope="module")
def er_dataset():
    return generate_er_dataset("beer", seed=7, n_entities=30)


def _er_plan(system, dataset):
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4)
    )
    return system.compile(pipeline), {"pairs": pairs_as_inputs(dataset.test)}


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            7,
            3.25,
            "text",
            [1, "two", None],
            ("a", 1),
            {"k": [1, 2]},
            {("left", "right"): True, 3: "x"},
            [{"nested": ({"deep": (1,)},)}],
            {"__ckpt__": "looks-like-a-tag"},
        ],
    )
    def test_round_trips_to_equal_value(self, value):
        encoded = encode_value(value)
        json.dumps(encoded)  # must be plain JSON
        assert decode_value(encoded) == value
        restored = decode_value(encoded)
        assert type(restored) is type(value)

    def test_tuple_and_list_stay_distinct(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", [object()]])
    def test_unserializable_raises(self, value):
        with pytest.raises(UnserializableValueError):
            encode_value(value)

    def test_replayed_value_repr_equality(self):
        stand_in = ReplayedValue("QuarantinedRecord(pair=...)")
        assert repr(stand_in) == "QuarantinedRecord(pair=...)"
        assert stand_in == ReplayedValue("QuarantinedRecord(pair=...)")
        assert stand_in != ReplayedValue("other")
        assert hash(stand_in) == hash(ReplayedValue("QuarantinedRecord(pair=...)"))


class TestCheckpointJournal:
    def test_append_load_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.wal")
        rows = [{"type": "header", "n": 0}, {"type": "chunk", "n": 1}]
        for row in rows:
            journal.append(row)
        journal.close()
        assert CheckpointJournal(journal.path).load() == rows

    def test_unterminated_tail_is_truncated_not_raised(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text('{"type":"header"}\n{"type":"chunk","half', encoding="utf-8")
        journal = CheckpointJournal(path)
        assert journal.load() == [{"type": "header"}]
        assert journal.torn_bytes == len('{"type":"chunk","half')
        # The torn bytes are physically gone: a second load is clean.
        assert CheckpointJournal(path).load() == [{"type": "header"}]
        assert CheckpointJournal(path).torn_bytes == 0

    def test_corrupt_line_is_skipped_counted_and_kept(self, tmp_path):
        path = tmp_path / "run.wal"
        text = '{"a":1}\nnot json at all\n{"b":2}\n'
        path.write_text(text, encoding="utf-8")
        journal = CheckpointJournal(path)
        assert journal.load() == [{"a": 1}, {"b": 2}]
        assert (journal.corrupt_lines, journal.torn_bytes) == (1, 0)
        assert path.read_text(encoding="utf-8") == text  # left in the file

    def test_non_object_line_is_a_corrupt_line(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text('{"a":1}\n[1,2,3]\n{"b":2}\n', encoding="utf-8")
        journal = CheckpointJournal(path)
        assert journal.load() == [{"a": 1}, {"b": 2}]
        assert journal.corrupt_lines == 1

    def test_missing_file_loads_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "absent.wal")
        assert journal.load() == []
        assert journal.torn_bytes == 0

    def test_delete_is_idempotent(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.wal")
        journal.append({"x": 1})
        journal.delete()
        assert not journal.path.exists()
        journal.delete()  # no file: still fine

    def test_appends_are_readable_before_close(self, tmp_path):
        # flush-on-append means a concurrent reader (or a crash) sees
        # every acknowledged record even while the handle stays open.
        journal = CheckpointJournal(tmp_path / "run.wal")
        for n in range(5):
            journal.append({"n": n})
        assert len(CheckpointJournal(journal.path).load()) == 5
        journal.close()


class TestHeaderValidation:
    def _begin(self, path, fingerprint, resume=True, service=None):
        checkpoint = RunCheckpoint(path, resume=resume)
        checkpoint.begin(fingerprint, service or LLMService(SimulatedProvider()))
        return checkpoint

    def test_fresh_journal_writes_header(self, tmp_path):
        checkpoint = self._begin(tmp_path / "run.wal", "abc")
        checkpoint.close()
        header = CheckpointJournal(checkpoint.path).load()[0]
        assert header["type"] == "header"
        assert header["format"] == JOURNAL_FORMAT_VERSION
        assert header["fingerprint"] == "abc"
        assert not checkpoint.stats.resumed

    def test_matching_fingerprint_resumes(self, tmp_path):
        self._begin(tmp_path / "run.wal", "abc").close()
        checkpoint = self._begin(tmp_path / "run.wal", "abc")
        assert checkpoint.stats.resumed
        checkpoint.close()

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        self._begin(tmp_path / "run.wal", "abc").close()
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            self._begin(tmp_path / "run.wal", "different")

    def test_resume_false_discards_the_journal(self, tmp_path):
        self._begin(tmp_path / "run.wal", "abc").close()
        checkpoint = self._begin(tmp_path / "run.wal", "different", resume=False)
        assert not checkpoint.stats.resumed  # fresh header, no replay
        checkpoint.close()

    def test_wrong_format_version_refuses(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text(
            json.dumps({"type": "header", "format": 999, "fingerprint": "abc"}) + "\n"
        )
        with pytest.raises(CheckpointError, match="format"):
            self._begin(path, "abc")

    def test_first_record_must_be_a_header(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text(json.dumps({"type": "chunk"}) + "\n")
        with pytest.raises(CheckpointError, match="header"):
            self._begin(path, "abc")

    def test_clock_divergence_refuses(self, tmp_path):
        self._begin(tmp_path / "run.wal", "abc").close()
        service = LLMService(SimulatedProvider())
        service.clock.advance(1.0)
        with pytest.raises(CheckpointMismatchError, match="clock"):
            self._begin(tmp_path / "run.wal", "abc", service=service)

    def test_a_checkpoint_drives_exactly_one_execute(self, tmp_path):
        checkpoint = self._begin(tmp_path / "run.wal", "abc")
        with pytest.raises(CheckpointError, match="exactly one"):
            checkpoint.begin("abc", LLMService(SimulatedProvider()))
        checkpoint.close()


class TestOperatorCommit:
    def _service(self):
        return LLMService(SimulatedProvider())

    def test_name_mismatch_refuses_replay(self, tmp_path):
        service = self._service()
        checkpoint = RunCheckpoint(tmp_path / "run.wal")
        checkpoint.begin("abc", service)
        checkpoint.commit_operator(
            0,
            "load",
            records=[],
            clock_end=0.5,
            outputs=[1, 2],
            quarantine=[],
            stats_delta={},
            tree_degraded=0,
            chunk_summaries=None,
            service=service,
        )
        checkpoint.close()
        resume = RunCheckpoint(tmp_path / "run.wal")
        resume.begin("abc", self._service())
        with pytest.raises(CheckpointMismatchError, match="load"):
            resume.operator_replay(0, "save")
        resume.close()

    def test_unserializable_outputs_commit_as_non_replayable(self, tmp_path):
        service = self._service()
        checkpoint = RunCheckpoint(tmp_path / "run.wal")
        checkpoint.begin("abc", service)
        checkpoint.commit_operator(
            0,
            "load",
            records=[],
            clock_end=0.5,
            outputs={1, 2},  # sets do not round-trip through JSON
            quarantine=[],
            stats_delta={},
            tree_degraded=0,
            chunk_summaries=None,
            service=service,
        )
        checkpoint.close()
        resume = RunCheckpoint(tmp_path / "run.wal")
        resume.begin("abc", self._service())
        assert resume.operator_replay(0, "load") is None  # re-execute live
        resume.close()

    def test_chunk_geometry_mismatch_refuses(self, tmp_path):
        service = self._service()
        checkpoint = RunCheckpoint(tmp_path / "run.wal")
        checkpoint.begin("abc", service)
        context = checkpoint.operator_context(0, "match")
        scope = SimpleNamespace(records=[], elapsed=0.25)
        outcome = SimpleNamespace(outputs=[True, False], quarantine=[], degraded=0)
        context.record_chunk(1, [1, 2], scope, outcome)
        checkpoint.close()

        resume = RunCheckpoint(tmp_path / "run.wal")
        resume.begin("abc", self._service())
        context = resume.operator_context(0, "match")
        with pytest.raises(CheckpointMismatchError, match="chunk"):
            context.replayable_chunks([2])  # journal has chunk index 1
        with pytest.raises(CheckpointMismatchError, match="record"):
            context.replayable_chunks([2, 3])  # chunk 1 covered 2 records
        replays = context.replayable_chunks([2, 2])
        assert replays[1].outputs == [True, False]
        assert replays[1].elapsed == 0.25
        resume.close()


class TestFingerprint:
    def test_payload_is_stable_under_key_order(self):
        assert fingerprint_payload({"a": 1, "b": 2}) == fingerprint_payload(
            {"b": 2, "a": 1}
        )
        assert fingerprint_payload({"a": 1}) != fingerprint_payload({"a": 2})

    def test_inputs_digest_is_order_insensitive(self):
        assert digest_inputs({"a": [1], "b": [2]}) == digest_inputs(
            {"b": [2], "a": [1]}
        )
        assert digest_inputs({"a": [1]}) != digest_inputs({"a": [2]})
        assert digest_inputs(None) == digest_inputs({})

    def test_plan_fingerprint_pins_inputs_and_chunking(self, system, er_dataset):
        plan, inputs = _er_plan(system, er_dataset)
        base = plan.fingerprint(inputs)
        assert base == plan.fingerprint(dict(inputs))  # deterministic
        assert base != plan.fingerprint({"pairs": inputs["pairs"][:-1]})
        assert base != plan.fingerprint(inputs, chunk_size=3)

    def test_plan_fingerprint_pins_the_pipeline(self, system, er_dataset):
        plan_a, inputs = _er_plan(system, er_dataset)
        pipeline_b = get_template("entity_resolution").instantiate(
            examples=pick_examples(er_dataset.train, 2)
        )
        plan_b = system.compile(pipeline_b)
        assert plan_a.fingerprint(inputs) != plan_b.fingerprint(inputs)

    def test_recompiled_plan_fingerprint_is_reproducible(self, system, er_dataset):
        plan_a, inputs = _er_plan(system, er_dataset)
        plan_b, _ = _er_plan(system, er_dataset)
        assert plan_a.fingerprint(inputs) == plan_b.fingerprint(inputs)


class TestCacheRewind:
    def _response(self, text):
        return LLMResponse(text=text, prompt_tokens=1, completion_tokens=1, model="sim")

    def test_restore_state_prunes_to_recorded_digests(self):
        from repro.llm.cache import CacheKey, PromptCache

        cache = PromptCache()
        early = CacheKey("sim", "v1", "prompt one", 64)
        cache.put(early, self._response("a"))
        exact = cache.state_digests()
        assert len(exact) == 1

        # The crashed run appends more entries before dying...
        cache.put(CacheKey("sim", "v1", "prompt two", 64), self._response("b"))
        cache.put(CacheKey("sim", "v1", "prompt three", 64), self._response("c"))
        assert len(cache) == 3

        # ...and the resume rewinds to the recorded state.
        dropped = cache.restore_state(exact)
        assert dropped == 2
        assert len(cache) == 1
        assert cache.peek(early)
        assert cache.state_digests() == exact

    def test_resumes_a_journal_whose_header_an_older_build_wrote(
        self, er_dataset, tmp_path
    ):
        """Upgrade compatibility: the header used to carry a second digest
        list (``cache_sealed``); it is ignored and the resume still rewinds
        the cache and reproduces the uninterrupted report byte for byte."""

        def run(cache_name, checkpoint=None):
            system = LinguaManga(cache_path=str(tmp_path / cache_name))
            plan_inputs = {"pairs": pairs_as_inputs(er_dataset.test)}
            pipeline = get_template("entity_resolution").instantiate(
                examples=pick_examples(er_dataset.train, 4)
            )
            return system.run(
                pipeline, plan_inputs, workers=2, chunk_size=2, checkpoint=checkpoint
            )

        baseline = run("uninterrupted.jsonl").canonical_json()
        wal = tmp_path / "run.wal"
        crash = CrashPoint("chunk:journaled", hits=2)
        with pytest.raises(CrashInjected):
            run("crashed.jsonl", RunCheckpoint(wal, crash=crash))
        header, *rest = wal.read_bytes().splitlines(keepends=True)
        written = json.loads(header)
        older = {
            "type": "header",
            "format": 1,
            "fingerprint": written["fingerprint"],
            "clock_start": written["clock_start"],
            "cache_exact": written["cache_exact"],
            "cache_sealed": [],
        }
        wal.write_bytes(json.dumps(older).encode() + b"\n" + b"".join(rest))

        resume = RunCheckpoint(wal)
        resumed = run("crashed.jsonl", resume)
        assert resume.stats.resumed
        assert resume.stats.cache_entries_pruned > 0  # the crashed run's appends
        assert resumed.canonical_json() == baseline
