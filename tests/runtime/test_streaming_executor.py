"""Tests for the pipelined streaming executor (workqueue tentpole).

The contract under test: a linear pipeline with a chunk-capable core runs
as a memory-bounded stream and produces a :class:`RunReport` byte-identical
to the batch scheduler's — at any worker count, with or without a durable
ledger, and on a pure-replay resume.
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

    def test_resumes_a_ledger_whose_header_an_older_build_wrote(self, tmp_path):
        """Upgrade compatibility: the header used to carry a second digest
        list (``cache_sealed``); it is ignored on resume."""
        wal = tmp_path / "run.wal"
        first, _ = run_streaming(workers=2, ledger_path=wal)
        header, *shards = wal.read_bytes().splitlines(keepends=True)
        written = json.loads(header)
        older = {
            "type": "header",
            "format": 1,
            "mode": "streaming",
            "fingerprint": written["fingerprint"],
            "clock_start": written["clock_start"],
            "cache_exact": written["cache_exact"],
            "cache_sealed": [],
        }
        # Keep half the shard lines: the resume replays three, runs three.
        wal.write_bytes(json.dumps(older).encode() + b"\n" + b"".join(shards[:3]))
        second, _ = run_streaming(workers=2, ledger_path=wal)
        assert_reports_identical(first, second)
        assert second.recovery["resumed"]
        assert second.recovery["replayed_shards"] == 3

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
    """Chunk-capable toy module that fails on chunks containing a marker."""

    chunk_capable = True

    def __init__(self, name="flaky"):
        super().__init__(name)

    def _run(self, value):
        return [v * 2 for v in value]

    def apply_chunk(self, chunk):
        if any(v == "POISON" for v in chunk):
            raise RuntimeError("poison pill")
        return ChunkOutcome(outputs=[v * 2 for v in chunk])


class Scripted(Flaky):
    """Chunk-capable toy module whose chunk function the test supplies."""

    def __init__(self, fn, name="work"):
        super().__init__(name)
        self.fn = fn

    def apply_chunk(self, chunk):
        return ChunkOutcome(outputs=self.fn(chunk))


def toy_plan(middle=None):
    pipeline = Pipeline(name="toy")
    pipeline.add(LogicalOperator(name="src", kind="load", params={}, inputs=[]))
    pipeline.add(
        LogicalOperator(name="work", kind="transform", params={}, inputs=["src"])
    )
    pipeline.add(
        LogicalOperator(name="out", kind="save", params={}, inputs=["work"])
    )
    context = CompilerContext()
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
    records, tmp_path, name="run.wal", workers=1, max_attempts=2, middle=None,
    **kwargs,
):
    plan = toy_plan(middle)
    ledger = ShardLedger(tmp_path / name)
    executor = StreamingExecutor(
        plan, ledger=ledger, workers=workers, chunk_size=2,
        max_attempts=max_attempts, source_id="toy", **kwargs,
    )
    try:
        return executor.execute({"records": iter(records)})
    finally:
        ledger.close()


class TestPoisonQuarantine:
    def test_poison_shard_quarantined_not_fatal(self, tmp_path):
        records = [1, 2, "POISON", 4, 5, 6]
        report = run_toy(records, tmp_path)
        assert report.partial
        assert next(iter(report.outputs.values())) == [2, 4, 10, 12]
        assert len(report.quarantine) == 2  # the poison shard's records
        assert all("poisoned after 2 attempt(s)" in q.error for q in report.quarantine)
        assert all(q.module_name == "work" for q in report.quarantine)
        assert report.recovery["quarantined_shards"] == 1
        assert report.recovery["shard_failures"] == 2

    def test_poison_reported_in_resilience_and_stats(self, tmp_path):
        report = run_toy([1, 2, "POISON", 4], tmp_path)
        assert report.resilience["work"].quarantined == 2
        assert report.resilience["work"].degraded == 0
        assert "failures=2" in report.module_stats["work"]

    def test_poison_replay_identical_without_reexecution(self, tmp_path):
        records = [1, 2, "POISON", 4, 5, 6]
        first = run_toy(records, tmp_path)
        second = run_toy(records, tmp_path)
        assert_reports_identical(first, second)
        assert second.recovery["resumed"]
        assert second.recovery["shard_failures"] == 0  # never re-executed

    def test_healthy_shards_unaffected_at_higher_workers(self, tmp_path):
        records = [1, 2, "POISON", 4, 5, 6, 7, 8]
        a = run_toy(records, tmp_path, name="a.wal", workers=1)
        b = run_toy(records, tmp_path, name="b.wal", workers=4)
        assert_reports_identical(a, b)

    def test_poison_quarantine_reprs_are_the_source_records(self, tmp_path):
        # Shards used to reach the quarantine as decoded copies of a JSON
        # round trip; the reprs the canonical report renders are pinned here.
        def work(chunk):
            if any(record["bad"] for record in chunk):
                raise RuntimeError("poison pill")
            return [record["id"] for record in chunk]

        records = [
            {"id": 1, "bad": False, "pair": ("a", "b")},
            {"id": 2, "bad": False, "pair": ("c", "d")},
            {"id": 3, "bad": True, "pair": ("caf\u00e9", 1.5), "nested": {"x": [1, None]}},
            {"id": 4, "bad": False, "pair": ("e", "f")},
        ]
        expected = [
            {
                "module": "work",
                "record": "{'id': 3, 'bad': True, 'pair': ('caf\u00e9', 1.5), "
                "'nested': {'x': [1, None]}}",
                "error": "shard 1 poisoned after 2 attempt(s): poison pill",
            },
            {
                "module": "work",
                "record": "{'id': 4, 'bad': False, 'pair': ('e', 'f')}",
                "error": "shard 1 poisoned after 2 attempt(s): poison pill",
            },
        ]
        first = run_toy(records, tmp_path, middle=Scripted(work))
        assert first.canonical_dict()["quarantine"] == expected
        resumed = run_toy(records, tmp_path, middle=Scripted(work))
        assert resumed.canonical_dict()["quarantine"] == expected

    def test_failed_shard_retries_on_what_the_source_produced(self, tmp_path):
        seen = []

        def work(chunk):
            seen.append(list(chunk))
            if len(seen) == 1:
                raise RuntimeError("transient")
            return [record["id"] for record in chunk]

        records = [{"id": i, "pair": (i, str(i))} for i in range(4)]
        report = run_toy(records, tmp_path, middle=Scripted(work))
        # Shard 0 fails and, the smallest pending index, runs again at once.
        assert seen == [records[:2], records[:2], records[2:]]
        assert seen[1][0] is records[0]  # attempts share the source's objects
        assert not report.partial
        assert report.recovery["shard_failures"] == 1
        assert next(iter(report.outputs.values())) == [0, 1, 2, 3]

    @staticmethod
    def _fail_shard_zero_once_after_serving(monkeypatch):
        """Shard 0's first attempt raises *after* its LLM calls were paid."""
        apply_chunk = MapModule.apply_chunk
        armed = [True]

        def failing_once(self, chunk):
            outcome = apply_chunk(self, chunk)
            if chunk[0]["left"]["lot"] == "LOT-00000000" and armed:
                armed.pop()
                raise RuntimeError("died after paying")
            return outcome

        monkeypatch.setattr(MapModule, "apply_chunk", failing_once)

    @pytest.mark.parametrize("phase", ["cold", "warm"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_attempt_that_fails_after_paying_is_rolled_back(
        self, workers, phase, tmp_path, monkeypatch
    ):
        warm = 0
        if phase == "warm":
            # Half of shard 0 is cached before the run: the rollback must
            # drop what the failed attempt added and keep these four.
            warm = 4
            seed = tmp_path / "seed.cache.jsonl"
            LinguaManga(cache_path=str(seed)).run_stream(
                er_pipeline(),
                {"pairs": itertools.islice(CORPUS.inputs(), warm)},
                chunk_size=8,
            )

        def run(tag):
            cache_path = None
            if warm:
                cache_path = str(tmp_path / f"{tag}.cache.jsonl")
                shutil.copy(seed, cache_path)
            service = LLMService(SimulatedProvider(), cache_path=cache_path)
            return run_streaming(workers, n_pairs=24, service=service)[0]

        clean = run("clean")
        assert (clean.cost.served_calls, clean.cost.cached_calls) == (24 - warm, warm)
        self._fail_shard_zero_once_after_serving(monkeypatch)
        disturbed = run("disturbed")
        assert disturbed.recovery["shard_failures"] == 1
        assert_reports_identical(clean, disturbed)

    def test_failed_attempt_then_crash_then_resume_is_identical(
        self, tmp_path, monkeypatch
    ):
        # The crash lands after the retry was journalled: the resume replays
        # the retry's records, so they must be those of an undisturbed run.
        clean, _ = run_streaming(workers=2, n_pairs=24)
        self._fail_shard_zero_once_after_serving(monkeypatch)
        wal = tmp_path / "run.wal"
        with pytest.raises(CrashInjected):
            run_streaming(
                workers=2, n_pairs=24, ledger_path=wal,
                crash=CrashPoint("shard:journaled", hits=3),
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
        # Dict equality, not bytes: on a plan without a single LLM call the
        # engines spell the zero cost totals ``0.0`` and ``0``.
        assert streamed.canonical_dict() == batch.canonical_dict()
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
            LogicalOperator(name="b", kind="transform", params={}, inputs=["a"])
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
            LogicalOperator(name="work", kind="transform", params={}, inputs=["src"])
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

    def test_resume_holds_no_records_for_replayed_or_poisoned_shards(
        self, tmp_path
    ):
        records = [1, 2, "POISON", 4, 5, 6]
        first = run_toy(records, tmp_path)
        assert first.recovery["inflight_peak_records"] > 0
        second = run_toy(records, tmp_path)
        assert second.recovery["resumed"]
        assert second.recovery["replayed_shards"] == 2
        assert second.recovery["quarantined_shards"] == 1
        assert second.recovery["inflight_peak_records"] == 0


class TestKnobValidation:
    @pytest.mark.parametrize(
        "engine, knob",
        [
            ("batch", "chunk_size"),
            ("stream", "chunk_size"),
            ("stream", "window"),
            ("stream", "max_attempts"),
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
