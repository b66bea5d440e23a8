"""Unit tests for the write-ahead run journal (repro.core.runtime.checkpoint).

The crash matrix (test_crash_resume.py) proves the end-to-end contract;
this file pins the parts in isolation: the value codec, torn-tail
recovery, header validation, fingerprint stability and the cache rewind.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

import repro._jsonl as jsonl
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
from repro.core.modules.custom import CustomModule
from repro.core.runtime.scheduler import Scheduler
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import LLMResponse, SimulatedProvider
from repro.llm.service import LLMService
from repro.obs import Observability
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples
from repro.tasks.imputation import run_hybrid_imputation
from repro.tasks.table import TASKS
from tests.oracles import trace_records


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

    @pytest.fixture()
    def clock(self, monkeypatch):
        """The journal module's monotonic clock, moved by hand; counts fsyncs."""
        now = SimpleNamespace(value=1000.0, fsyncs=0)
        monkeypatch.setattr(jsonl, "time", SimpleNamespace(monotonic=lambda: now.value))
        real_fsync = os.fsync

        def fsync(descriptor):
            now.fsyncs += 1
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", fsync)
        return now

    def test_a_journal_closed_within_the_interval_fsyncs_once_and_starts_no_thread(
        self, tmp_path, clock
    ):
        journal = CheckpointJournal(tmp_path / "run.wal")
        for n in range(3):
            journal.append({"n": n})
            clock.value += jsonl.DEFAULT_FSYNC_INTERVAL / 4
        assert journal._fsync_thread is None
        journal.close()
        assert clock.fsyncs == 1  # close's

    def test_appends_spanning_the_interval_start_the_sync_thread(self, tmp_path, clock):
        journal = CheckpointJournal(tmp_path / "run.wal")
        journal.append({"n": 0})
        clock.value += 2 * jsonl.DEFAULT_FSYNC_INTERVAL  # past the interval since the open
        journal.append({"n": 1})
        assert journal._fsync_thread is not None
        journal.close()
        assert 1 <= clock.fsyncs <= 2  # the thread's, if it ran first, and close's


class TestHeaderValidation:
    def _begin(self, path, fingerprint, resume=True, service=None):
        checkpoint = RunCheckpoint(path, resume=resume)
        checkpoint.begin(fingerprint, service or LLMService(SimulatedProvider()))
        return checkpoint

    def test_fresh_journal_writes_header(self, tmp_path):
        checkpoint = self._begin(tmp_path / "run.wal", "abc")
        checkpoint.close()
        header, plan = CheckpointJournal(checkpoint.path).load()
        assert header["type"] == "header"
        assert header["format"] == JOURNAL_FORMAT_VERSION
        assert (plan["type"], plan["fingerprint"]) == ("plan", "abc")
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

    def test_work_without_a_plan_line_refuses(self, tmp_path):
        """A damaged plan line is refused like a damaged header: the work
        after it cannot be matched to a plan."""
        path = tmp_path / "run.wal"
        header = {"type": "header", "format": JOURNAL_FORMAT_VERSION, "cache_exact": []}
        path.write_text(
            json.dumps(header) + "\n" + json.dumps({"type": "op", "index": 0}) + "\n"
        )
        with pytest.raises(CheckpointError, match="plan line"):
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
        checkpoint.operator_context(0, "load").commit()
        checkpoint.close()
        resume = RunCheckpoint(tmp_path / "run.wal")
        resume.begin("abc", self._service())
        assert resume.operator_context(0, "load").committed
        with pytest.raises(CheckpointMismatchError, match="load"):
            resume.operator_context(0, "save")
        resume.close()

    def test_unserializable_outputs_commit_as_non_replayable(self, tmp_path):
        """A whole operator's output that does not round-trip (a set) is
        journalled as a ``replayable: false`` chunk line: the resume runs
        the committed operator again instead of replaying it."""
        calls = []

        def load(value):
            calls.append(value)
            return {1, 2}  # sets do not round-trip through JSON

        def run(checkpoint):
            service = self._service()
            checkpoint.begin("abc", service)
            module = CustomModule("load", load)
            output = Scheduler().run_operator(
                module, {"rows": 2}, service, checkpoint.operator_context(0, "load")
            )
            return checkpoint, module, output

        first, _, output = run(RunCheckpoint(tmp_path / "run.wal"))
        first.operator_context(0, "load").commit()
        first.close()
        [chunk] = [
            line
            for line in CheckpointJournal(tmp_path / "run.wal").load()
            if line["type"] == "chunk"
        ]
        assert (chunk["n_records"], chunk["replayable"]) == (1, False)
        resume, module, again = run(RunCheckpoint(tmp_path / "run.wal"))
        assert resume.operator_context(0, "load").committed
        assert again == output == {1, 2}
        assert len(calls) == 2 and module.stats.invocations == 1
        assert resume.stats.replayed_chunks == 0
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
        scope, outcome = context.replayable_chunks([2, 2])[1]
        assert outcome.outputs == [True, False]
        assert scope.elapsed == 0.25
        resume.close()


class TestChunkedCommits:
    """Every operator's work is journalled once, in its chunk lines; every
    ``op`` line is a commit marker, and a resume replays the chunk lines."""

    def _run(self, dataset, checkpoint=None):
        provider = SimulatedProvider()
        obs = Observability()
        system = LinguaManga(service=LLMService(provider), obs=obs)
        pipeline = get_template("entity_resolution").instantiate(
            examples=pick_examples(dataset.train, 4)
        )
        report = system.run(
            pipeline,
            {"pairs": pairs_as_inputs(dataset.test)},
            workers=2,
            chunk_size=2,
            checkpoint=checkpoint,
        )
        return report, system, provider, obs

    def test_each_ledger_record_is_journalled_once(self, er_dataset, tmp_path):
        wal = tmp_path / "run.wal"
        report, system, _, _ = self._run(er_dataset, RunCheckpoint(wal))
        lines = CheckpointJournal(wal).load()[1:]
        commits = [line for line in lines if line["type"] == "op"]
        assert len(commits) == len(report.module_stats)
        assert all(
            line == {"type": "op", "index": i, "name": line["name"]}
            for i, line in enumerate(commits)
        )
        chunks = [line for line in lines if line["type"] == "chunk"]
        rows = sum(len(line["records"]["rows"]) for line in chunks)
        assert rows == len(system.service.records)

    def test_a_finished_journal_replays_through_the_scheduler(
        self, er_dataset, tmp_path
    ):
        wal = tmp_path / "run.wal"
        first, _, _, first_obs = self._run(er_dataset, RunCheckpoint(wal))
        journalled = sum(
            line["type"] == "chunk" for line in CheckpointJournal(wal).load()
        )
        resume = RunCheckpoint(wal)
        again, _, provider, obs = self._run(er_dataset, resume)
        assert provider.calls_served == 0
        assert again.canonical_json() == first.canonical_json()
        assert trace_records(obs.tracer) == trace_records(first_obs.tracer)
        for name in ("scheduler.chunked_operators", "scheduler.chunks"):
            assert obs.metrics.value(name) == first_obs.metrics.value(name) > 0
        assert resume.stats.replayed_operators == len(again.module_stats)
        assert resume.stats.replayed_chunks == journalled
        assert resume.stats.journaled_chunks == 0


class TestOneAppendCommit:
    """An operator's ``op`` marker rides in the append of the last chunk line
    it journals: a 12-pair ER run at ``chunk_size=4`` (load, match in three
    chunks, save) writes 10 lines in 7 appends, where one append per line
    made 10."""

    @pytest.fixture(scope="class")
    def er12(self):
        dataset = generate_er_dataset("beer", seed=7, n_entities=60)
        return dataset, pairs_as_inputs(dataset.test[:12])

    @staticmethod
    def _run(er12, workers, checkpoint=None):
        dataset, pairs = er12
        pipeline = get_template("entity_resolution").instantiate(
            examples=pick_examples(dataset.train, 4)
        )
        return LinguaManga().run(
            pipeline, {"pairs": pairs}, workers=workers, chunk_size=4,
            checkpoint=checkpoint,
        )

    @pytest.fixture(scope="class")
    def baseline(self, er12):
        return self._run(er12, workers=1).canonical_json()

    @staticmethod
    def _recorded(checkpoint) -> list[tuple]:
        """Every ``append`` call's records, in call order."""
        appends = []
        real = checkpoint.journal.append

        def append(*records):
            appends.append(records)
            real(*records)

        checkpoint.journal.append = append
        return appends

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_a_marker_shares_its_last_chunk_lines_append(
        self, er12, baseline, workers, tmp_path
    ):
        checkpoint = RunCheckpoint(tmp_path / "run.wal")
        appends = self._recorded(checkpoint)
        report = self._run(er12, workers, checkpoint)
        checkpoint.close()
        assert report.canonical_json() == baseline
        lines = CheckpointJournal(checkpoint.path).load()
        assert (len(appends), len(lines)) == (7, 10)
        assert [record["type"] for records in appends for record in records] == [
            line["type"] for line in lines
        ]
        commits = [records for records in appends if records[-1]["type"] == "op"]
        assert [marker["index"] for *_, marker in commits] == [0, 1, 2]
        for records in commits:
            chunk, marker = records
            assert (chunk["type"], chunk["op"]) == ("chunk", marker["index"])
            # ...and no chunk line of that operator comes after it.
            later = [
                record
                for rest in appends[appends.index(records) + 1 :]
                for record in rest
                if record["type"] == "chunk"
            ]
            assert marker["index"] not in {record["op"] for record in later}

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("hits", [1, 2, 3])
    def test_killed_at_a_commit_resumes_byte_identical(
        self, er12, baseline, workers, hits, tmp_path
    ):
        wal = tmp_path / "run.wal"
        crash = CrashPoint("operator:committed", hits=hits)
        with pytest.raises(CrashInjected):
            self._run(er12, workers, RunCheckpoint(wal, crash=crash))
        resume = RunCheckpoint(wal)
        assert self._run(er12, workers, resume).canonical_json() == baseline
        assert resume.stats.replayed_operators == hits
        ops = [line for line in CheckpointJournal(wal).load() if line["type"] == "op"]
        assert [line["index"] for line in ops] == [0, 1, 2]  # no marker twice

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("cut", ["chunk line", "marker"])
    def test_a_torn_final_append_resumes_byte_identical(
        self, er12, baseline, workers, cut, tmp_path
    ):
        """The final append is ``save``'s chunk line and its marker.  Torn
        inside the chunk line, both are lost and the chunk runs again; torn
        inside the marker, the chunk replays and the marker goes out alone.
        Either way the journal ends as the uninterrupted run left it."""
        wal = tmp_path / "run.wal"
        self._run(er12, workers, RunCheckpoint(wal))
        whole = wal.read_bytes()
        *_, chunk, marker = whole.splitlines(keepends=True)
        assert json.loads(marker)["type"] == "op"
        keep = len(whole) - len(marker) - (len(chunk) // 2 if cut == "chunk line" else -3)
        wal.write_bytes(whole[:keep])
        resume = RunCheckpoint(wal)
        assert self._run(er12, workers, resume).canonical_json() == baseline
        assert resume.stats.torn_bytes > 0
        assert resume.stats.journaled_chunks == (1 if cut == "chunk line" else 0)
        assert wal.read_bytes() == whole


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


class TestCompileThatPays:
    """The hybrid imputation plan pays the LLM at compile (the validator's
    code generation), so a resume over a persistent cache must rewind the
    cache before it recompiles, or the recompile is free and the clock at
    begin no longer matches the journal's."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_buy_dataset(seed=11, n_train=8, n_test=24).test

    @pytest.fixture(scope="class")
    def uninterrupted(self, data):
        return run_hybrid_imputation(LinguaManga(), data, workers=1)

    @staticmethod
    def same(result, uninterrupted):
        assert result.report.canonical_json() == uninterrupted.report.canonical_json()
        assert (result.llm_calls, result.cost, result.cached_calls) == (
            uninterrupted.llm_calls, uninterrupted.cost, uninterrupted.cached_calls
        )

    @pytest.mark.parametrize("boundary", ["chunk:journaled", "operator:committed"])
    def test_a_crashed_run_resumes_over_its_cache(
        self, boundary, data, uninterrupted, tmp_path
    ):
        cache, wal = tmp_path / "cache.jsonl", tmp_path / "run.wal"
        with pytest.raises(CrashInjected):
            run_hybrid_imputation(
                LinguaManga(cache_path=cache), data, workers=1,
                checkpoint=RunCheckpoint(wal, crash=CrashPoint(boundary)),
            )
        resumed = run_hybrid_imputation(
            LinguaManga(cache_path=cache), data, workers=1, checkpoint_path=wal
        )
        self.same(resumed, uninterrupted)

    def test_a_run_killed_while_compiling_resumes_over_its_cache(
        self, data, uninterrupted, tmp_path
    ):
        """The header is durable before compile: an attempt that paid for
        part of its compile and died leaves a header and no plan line, and
        the next attempt rewinds the cache to it and pays the compile again."""
        cache, wal = tmp_path / "cache.jsonl", tmp_path / "run.wal"
        system = LinguaManga(cache_path=cache)
        killed = RunCheckpoint(wal)
        killed.open(system.service)
        plan = TASKS["imputation_hybrid"].build(data)
        system.compile(plan.pipeline)  # pays, journals the cache, then dies
        killed.close()
        assert [line["type"] for line in CheckpointJournal(wal).load()] == ["header"]
        assert len(LinguaManga(cache_path=cache).service.cache) > 0

        resume = RunCheckpoint(wal)
        resumed = run_hybrid_imputation(
            LinguaManga(cache_path=cache), data, workers=1, checkpoint=resume
        )
        assert resume.stats.cache_entries_pruned > 0
        assert not resume.stats.resumed  # nothing had begun: no replay
        self.same(resumed, uninterrupted)
