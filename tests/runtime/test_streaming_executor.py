"""Tests for the pipelined streaming executor (workqueue tentpole).

The contract under test: a linear pipeline with a chunk-capable core runs
as a memory-bounded stream and produces a :class:`RunReport` byte-identical
to the batch scheduler's — at any worker count, with or without a durable
ledger, and on a pure-replay resume — and fails where the batch scheduler
fails, with the same error.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import tempfile
import threading

import pytest

from repro.core.dsl.operators import LogicalOperator
from repro.core.dsl.pipeline import Pipeline
from repro.core.compiler.context import CompilerContext
from repro.core.compiler.plan import BoundOperator, PhysicalPlan
from repro.core.modules.base import ChunkOutcome, Module
from repro.core.modules.custom import CustomModule
from repro.core.modules.mapping import MapModule
from repro.core.runtime.system import LinguaManga
from repro.core.runtime.workqueue import (
    ShardLedger,
    StreamingExecutor,
    StreamingPlanError,
)
from repro.core.templates.library import get_template
from repro.datasets import CurationCorpus, StreamingERCorpus
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.obs import Observability
from tests.conftest import assert_reports_identical

CORPUS = StreamingERCorpus(48, seed=7)


def er_pipeline():
    return get_template("entity_resolution").instantiate(examples=CORPUS.examples())


def run_streaming(
    workers=1, ledger_path=None, sink=None, n_pairs=48, service=None, **kwargs
):
    corpus = StreamingERCorpus(n_pairs, seed=7)
    system = LinguaManga(service=service)
    report = system.run_stream(
        er_pipeline(),
        {"pairs": corpus.inputs()},
        workers=workers,
        chunk_size=8,
        ledger_path=ledger_path,
        source_id=corpus.fingerprint,
        sink=sink,
        **kwargs,
    )
    return report, system


class TestByteIdentity:
    def test_matches_batch_scheduler(self):
        streaming, _ = run_streaming(workers=2)
        system = LinguaManga()
        batch = system.run(
            er_pipeline(), {"pairs": list(CORPUS.inputs())}, workers=1, chunk_size=8
        )
        assert_reports_identical(streaming, batch)

    def test_identical_at_any_worker_count(self):
        reports = [run_streaming(workers=w)[0] for w in (1, 2, 8)]
        assert_reports_identical(*reports)

    def test_generator_input_never_materialized(self):
        # The input is a one-shot generator: if anything list()-ed it, the
        # stream would come up empty after the first pull.
        report, _ = run_streaming(workers=2)
        assert len(next(iter(report.outputs.values()))) == 48

    def test_replay_resume_is_free_and_identical(self, tmp_path):
        first, _ = run_streaming(workers=2, ledger_path=tmp_path / "run.wal")
        provider = SimulatedProvider()
        second, _ = run_streaming(
            workers=8,
            ledger_path=tmp_path / "run.wal",
            service=LLMService(provider),
        )
        assert_reports_identical(first, second)
        assert provider.calls_served == 0  # pure replay
        assert second.recovery["resumed"]
        assert second.recovery["replayed_shards"] == 6

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_engines_fail_alike(self, workers, tmp_path):
        """A record that raises fails a stream as it fails a batch run.  The
        shards the stream journalled replay for free, and a resume with the
        fault gone equals an uninterrupted run."""
        wal = tmp_path / "run.wal"
        errors, paid = [], []
        for engine in ("batch", "stream"):
            provider = SimulatedProvider()
            with pytest.raises(Exception) as raised:
                run_failure_case(engine, workers, provider, wal, faulty=True)
            errors.append(raised.value)
            paid.append(provider.calls_served)
        assert type(errors[0]) is type(errors[1])
        if workers == 1:
            assert paid[0] == paid[1] > 0
        full_provider, resumed_provider = SimulatedProvider(), SimulatedProvider()
        full = run_failure_case("stream", 1, full_provider, tmp_path / "full.wal", faulty=False)
        resumed = run_failure_case("stream", workers, resumed_provider, wal, faulty=False)
        assert_reports_identical(full, resumed)
        # One paid call per record, two records per shard.
        assert resumed_provider.calls_served == (
            full_provider.calls_served - 2 * resumed.recovery["replayed_shards"]
        )

    def test_recovery_counters_shape(self):
        report, _ = run_streaming(workers=2)
        recovery = report.recovery
        assert recovery["mode"] == "streaming"
        assert recovery["shards"] == 6
        assert recovery["journaled_shards"] == 6
        assert 0 < recovery["inflight_peak_records"] <= 48
        assert recovery["spill_peak_bytes"] == 0  # pinned key, nothing spills
        assert not recovery["resumed"]

    def test_recovery_excluded_from_canonical(self):
        report, _ = run_streaming()
        assert "recovery" not in report.canonical_dict()

    def test_distilled_seconds_surfaced_separately(self):
        report, _ = run_streaming()
        payload = json.loads(report.canonical_json())
        assert "provider_seconds" in payload["cost"]
        assert "distilled_seconds" in payload["cost"]
        assert payload["cost"]["distilled_seconds"] == 0.0


class TestEphemeralLedger:
    """Without ``ledger_path`` the temporary ledger directory never outlives the run."""

    def test_temp_directory_removed_on_success_and_failure(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def leftovers():
            return sorted(tmp_path.glob("repro-stream-*"))

        assert leftovers() == []
        report, _ = run_streaming(workers=2)
        assert report.recovery["inflight_peak_records"] > 0  # shards ran
        assert leftovers() == []

        def exploding_source():
            yield from itertools.islice(CORPUS.inputs(), 12)
            raise RuntimeError("source died mid-stream")

        with pytest.raises(RuntimeError, match="source died"):
            LinguaManga().run_stream(
                er_pipeline(), {"pairs": exploding_source()}, chunk_size=8
            )
        assert leftovers() == []


class TestSinkMode:
    def test_sink_streams_outputs_in_shard_order(self):
        collected = []
        lock = threading.Lock()

        def sink(outputs):
            with lock:
                collected.append(list(outputs))

        sink_report, _ = run_streaming(workers=4, sink=sink)
        list_report, _ = run_streaming(workers=1)
        flat = [v for batch in collected for v in batch]
        assert flat == next(iter(list_report.outputs.values()))
        summary = next(iter(sink_report.outputs.values()))
        assert summary["records"] == 48

    def test_sink_digest_deterministic(self):
        a, _ = run_streaming(workers=1, sink=lambda outputs: None)
        b, _ = run_streaming(workers=8, sink=lambda outputs: None)
        assert_reports_identical(a, b)


class TestObservability:
    def test_shard_spans_and_queue_metrics(self):
        corpus = StreamingERCorpus(24, seed=7)
        obs = Observability()
        system = LinguaManga(obs=obs)
        system.run_stream(
            er_pipeline(), {"pairs": corpus.inputs()}, workers=2, chunk_size=8,
            source_id=corpus.fingerprint,
        )
        run_root = obs.tracer.roots[0]
        shard_spans = [s for s in run_root.children if s.kind == "shard"]
        assert [s.name for s in shard_spans] == [f"shard[{i}]" for i in range(3)]
        assert sum(s.attributes["records"] for s in shard_spans) == 24
        names = set(obs.metrics.as_dict())
        # The streamed core is not an operator of the batch scheduler.
        assert "scheduler.chunks" not in names
        assert not any(name.startswith("spill.") for name in names)


# -- hand-built plans for failure-path tests ------------------------------------


class Flaky(Module):
    """Chunk-capable toy module that fails on chunks containing a marker,
    while ``armed``."""

    chunk_capable = True

    def __init__(self, name="flaky", armed=True):
        super().__init__(name)
        self.armed = armed

    def _run(self, value):
        return [v * 2 for v in value]

    def apply_chunk(self, chunk):
        if self.armed and any(v == "POISON" for v in chunk):
            raise RuntimeError("poison pill")
        return ChunkOutcome(outputs=[v * 2 for v in chunk])


class Scripted(Flaky):
    """Chunk-capable toy module whose chunk function the test supplies."""

    def __init__(self, fn, name="work"):
        super().__init__(name)
        self.fn = fn

    def apply_chunk(self, chunk):
        return ChunkOutcome(outputs=self.fn(chunk))


def toy_plan(middle=None, service=None):
    pipeline = Pipeline(name="toy")
    pipeline.add(LogicalOperator(name="src", kind="load", params={}, inputs=[]))
    pipeline.add(
        LogicalOperator(name="work", kind="custom", params={}, inputs=["src"])
    )
    pipeline.add(
        LogicalOperator(name="out", kind="save", params={}, inputs=["work"])
    )
    context = CompilerContext() if service is None else CompilerContext(service=service)
    bound = [
        BoundOperator(
            operator=pipeline.operators[0],
            module=CustomModule("src", lambda inputs: inputs["records"]),
        ),
        BoundOperator(operator=pipeline.operators[1], module=middle or Flaky("work")),
        BoundOperator(
            operator=pipeline.operators[2], module=CustomModule("out", lambda v: v)
        ),
    ]
    return PhysicalPlan(pipeline=pipeline, bound=bound, context=context)


def run_toy(
    records, tmp_path, name="run.wal", workers=1, middle=None, crash=None,
    service=None, **kwargs,
):
    plan = toy_plan(middle, service)
    ledger = ShardLedger(tmp_path / name, crash=crash)
    executor = StreamingExecutor(
        plan, ledger=ledger, workers=workers, chunk_size=2, source_id="toy",
        **kwargs,
    )
    try:
        return executor.execute({"records": iter(records)})
    finally:
        ledger.close()


def ask_each(service, failing=()):
    """A toy chunk function: one paid call per record, raising on ``failing``."""

    def work(chunk):
        answers = []
        for value in chunk:
            if value in failing:
                raise RuntimeError(f"record {value} failed")
            answers.append(service.complete(f"Repeat the number {value}."))
        return answers

    return work


def run_failure_case(engine, workers, provider, ledger_path, faulty):
    """One engine over a toy plan whose middle operator pays one call per
    record and, with its fault in, raises on record 7."""
    service = LLMService(provider)
    middle = Scripted(ask_each(service, failing={7} if faulty else ()), name="work")
    if engine == "batch":
        return toy_plan(middle, service).execute(
            {"records": list(range(12))}, workers=workers, chunk_size=2
        )
    return run_toy(
        range(12), ledger_path.parent, name=ledger_path.name, workers=workers,
        middle=middle, service=service,
    )


class TestShardFailure:
    """A shard that raises fails the run, and what it cached goes with it."""

    @staticmethod
    def _fail_shard_zero_after_serving(monkeypatch):
        """Shard 0 raises *after* its LLM calls were paid, each time it runs;
        ``monkeypatch.undo()`` removes the fault."""
        apply_chunk = MapModule.apply_chunk

        def failing(self, chunk):
            outcome = apply_chunk(self, chunk)
            if chunk[0]["left"]["lot"] == "LOT-00000000":
                raise RuntimeError("died after paying")
            return outcome

        monkeypatch.setattr(MapModule, "apply_chunk", failing)

    @pytest.mark.parametrize("phase", ["cold", "warm"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_attempt_that_fails_after_paying_is_rolled_back(
        self, workers, phase, tmp_path, monkeypatch
    ):
        warm = 0
        if phase == "warm":
            # Half of shard 0 is cached before the run: the rollback must
            # drop what the failed shard added and keep these four.
            warm = 4
            seed = tmp_path / "seed.cache.jsonl"
            LinguaManga(cache_path=str(seed)).run_stream(
                er_pipeline(),
                {"pairs": itertools.islice(CORPUS.inputs(), warm)},
                chunk_size=8,
            )

        def service(tag):
            cache_path = None
            if warm:
                cache_path = str(tmp_path / f"{tag}.cache.jsonl")
                shutil.copy(seed, cache_path)
            return LLMService(SimulatedProvider(), cache_path=cache_path)

        clean, _ = run_streaming(workers, n_pairs=24, service=service("clean"))
        disturbed = service("disturbed")
        wal = tmp_path / "run.wal"
        self._fail_shard_zero_after_serving(monkeypatch)
        with pytest.raises(RuntimeError, match="died after paying"):
            run_streaming(workers, wal, n_pairs=24, service=disturbed)
        lines = [json.loads(line) for line in wal.read_text().splitlines()]
        journalled = sum(line["type"] == "shard" for line in lines)
        if workers == 1:
            assert journalled == 0
        # Every shard holds 8 distinct prompts: the cache keeps the warm
        # entries and what the ledger names, nothing shard 0 paid for.
        assert len(disturbed.cache) == warm + 8 * journalled
        monkeypatch.undo()
        resumed, _ = run_streaming(workers, wal, n_pairs=24, service=disturbed)
        assert_reports_identical(clean, resumed)

    def test_failed_attempt_then_crash_then_resume_is_identical(
        self, tmp_path, monkeypatch
    ):
        # The run fails at shard 0; the resume, the fault gone, crashes once
        # it journals a shard; a second resume finishes the run.
        clean, _ = run_streaming(workers=2, n_pairs=24)
        self._fail_shard_zero_after_serving(monkeypatch)
        wal = tmp_path / "run.wal"
        with pytest.raises(RuntimeError, match="died after paying"):
            run_streaming(workers=2, n_pairs=24, ledger_path=wal)
        monkeypatch.undo()
        with pytest.raises(CrashInjected):
            run_streaming(
                workers=2, n_pairs=24, ledger_path=wal,
                crash=CrashPoint("shard:journaled", hits=1),
            )
        resumed, _ = run_streaming(workers=2, n_pairs=24, ledger_path=wal)
        assert resumed.recovery["resumed"]
        assert_reports_identical(clean, resumed)


class TestShardInputs:
    """A shard's records are the source's own objects, whatever they hold."""

    def test_records_the_journal_cannot_encode_stream_like_batch(self, tmp_path):
        def work(chunk):
            return [len(record["tags"]) + record["id"] for record in chunk]

        records = [{"id": i, "tags": frozenset({"a", i})} for i in range(6)]
        streamed = run_toy(records, tmp_path, middle=Scripted(work))
        batch = toy_plan(Scripted(work)).execute(
            {"records": records}, workers=1, chunk_size=2
        )
        assert streamed.canonical_json() == batch.canonical_json()
        assert next(iter(streamed.outputs.values())) == [2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize(
        "template", ["entity_resolution", "quality_filter", "decontamination"]
    )
    def test_templates_do_not_mutate_shard_inputs(self, template, tmp_path):
        # Every attempt of a shard is handed the same record objects, so
        # the streamed operators must leave them as the source made them.
        if template == "entity_resolution":
            pipeline, inputs = er_pipeline(), {"pairs": CORPUS.inputs()}
        else:
            docs = CurationCorpus(n_docs=12, seed=7)
            if template == "quality_filter":
                kwargs = {"examples": docs.quality_examples(4)}
            else:
                kwargs = {
                    "eval_items": list(docs.eval_set.items()),
                    "examples": docs.decontamination_examples(4),
                }
            pipeline = get_template(template).instantiate(**kwargs)
            inputs = {"documents": docs.inputs()}
        executor = StreamingExecutor(
            LinguaManga().compile(pipeline), ledger=ShardLedger(tmp_path / "x.wal")
        )
        prefix, middle, _ = executor._split_chain()
        source = inputs
        for binding in prefix:
            source = binding.module.run(source)
        shard = list(itertools.islice(source, 8))
        before = copy.deepcopy(shard)
        current = shard
        for binding in middle:
            current = list(binding.module.apply_chunk(current).outputs)
        assert len(current) == len(shard) == 8
        assert shard == before


class TestPlanValidation:
    def test_rejects_non_linear_plans(self, tmp_path):
        pipeline = Pipeline(name="diamond")
        pipeline.add(LogicalOperator(name="a", kind="load", params={}, inputs=[]))
        pipeline.add(
            LogicalOperator(name="b", kind="custom", params={}, inputs=["a"])
        )
        pipeline.add(
            LogicalOperator(
                name="c", kind="custom", params={}, inputs=["a", "b"]
            )
        )
        context = CompilerContext()
        bound = [
            BoundOperator(
                operator=pipeline.operators[0],
                module=CustomModule("a", lambda v: v),
            ),
            BoundOperator(operator=pipeline.operators[1], module=Flaky("b")),
            BoundOperator(
                operator=pipeline.operators[2],
                module=CustomModule("c", lambda v: v),
            ),
        ]
        plan = PhysicalPlan(pipeline=pipeline, bound=bound, context=context)
        ledger = ShardLedger(tmp_path / "run.wal")
        executor = StreamingExecutor(plan, ledger=ledger)
        with pytest.raises(StreamingPlanError):
            executor.execute({})

    def test_rejects_plans_without_chunkable_core(self, tmp_path):
        pipeline = Pipeline(name="flat")
        pipeline.add(LogicalOperator(name="a", kind="load", params={}, inputs=[]))
        context = CompilerContext()
        bound = [
            BoundOperator(
                operator=pipeline.operators[0],
                module=CustomModule("a", lambda v: v),
            )
        ]
        plan = PhysicalPlan(pipeline=pipeline, bound=bound, context=context)
        executor = StreamingExecutor(plan, ledger=ShardLedger(tmp_path / "x.wal"))
        with pytest.raises(StreamingPlanError):
            executor.execute({})

    def test_sink_mode_requires_save_suffix(self, tmp_path):
        pipeline = Pipeline(name="toy2")
        pipeline.add(LogicalOperator(name="src", kind="load", params={}, inputs=[]))
        pipeline.add(
            LogicalOperator(name="work", kind="custom", params={}, inputs=["src"])
        )
        pipeline.add(
            LogicalOperator(
                name="post", kind="custom", params={}, inputs=["work"]
            )
        )
        context = CompilerContext()
        bound = [
            BoundOperator(
                operator=pipeline.operators[0],
                module=CustomModule("src", lambda inputs: inputs["records"]),
            ),
            BoundOperator(operator=pipeline.operators[1], module=Flaky("work")),
            BoundOperator(
                operator=pipeline.operators[2],
                module=CustomModule("post", lambda v: v),
            ),
        ]
        plan = PhysicalPlan(pipeline=pipeline, bound=bound, context=context)
        executor = StreamingExecutor(
            plan, ledger=ShardLedger(tmp_path / "y.wal"), sink=lambda outputs: None
        )
        with pytest.raises(StreamingPlanError):
            executor.execute({"records": [1]})


class TestMemoryBounding:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_inflight_records_bounded_by_window_times_chunk(
        self, workers, tmp_path
    ):
        # The window is the one memory bound: shards pulled from the source
        # and not yet folded never outnumber it, so neither do their records.
        folded, resident = [], []

        def source():
            for value in range(80):
                # Shards pulled so far (this one included) minus those folded.
                resident.append(value // 2 + 1 - len(folded))
                yield value

        report = run_toy(
            source(), tmp_path, workers=workers, window=3, sink=folded.append
        )
        assert [v for batch in folded for v in batch] == [v * 2 for v in range(80)]
        assert report.recovery["shards"] == 40
        assert 0 < max(resident) <= 3
        assert 0 < report.recovery["inflight_peak_records"] <= 3 * 2

    def test_one_worker_holds_one_shard(self, tmp_path):
        # At workers=1 the map pulls a shard, runs it and folds it before
        # the next pull, whatever the window.
        report = run_toy(range(80), tmp_path, workers=1, window=3)
        assert report.recovery["inflight_peak_records"] == 2  # chunk_size

    def test_resume_holds_no_records_for_replayed_shards(self, tmp_path):
        records = [1, 2, 3, 4, 5, 6]
        first = run_toy(records, tmp_path)
        assert first.recovery["inflight_peak_records"] > 0
        second = run_toy(records, tmp_path)
        assert second.recovery["resumed"]
        assert second.recovery["replayed_shards"] == 3
        assert second.recovery["inflight_peak_records"] == 0


class TestKnobValidation:
    @pytest.mark.parametrize(
        "engine, knob",
        [
            ("batch", "chunk_size"),
            ("stream", "chunk_size"),
            ("stream", "window"),
        ],
    )
    def test_bad_knob_leaves_no_journal_behind(self, engine, knob, tmp_path):
        # A header written before the check would pin chunk_size: 0 into
        # the fingerprint, and the corrected rerun on the path would fail.
        path = tmp_path / "run.wal"
        corpus = StreamingERCorpus(16, seed=7)

        def run(**override):
            knobs = {"chunk_size": 8, **override}
            if engine == "batch":
                return LinguaManga().run(
                    er_pipeline(), {"pairs": list(corpus.inputs())},
                    checkpoint_path=path, **knobs,
                )
            return LinguaManga().run_stream(
                er_pipeline(), {"pairs": corpus.inputs()}, ledger_path=path,
                source_id=corpus.fingerprint, **knobs,
            )

        with pytest.raises(ValueError, match=knob):
            run(**{knob: 0})
        assert not path.exists()
        assert not run().partial
