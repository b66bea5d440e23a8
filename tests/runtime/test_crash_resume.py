"""Crash-injection matrix over the demo applications and the hybrid imputation.

The checkpoint contract (PR 5): kill a checkpointed run at *any* execution
boundary, re-run with the same journal path, and the merged
:class:`RunReport` is byte-identical to an uninterrupted run — cold or
warm cache, at workers 1, 2 and 8, with the replayed prefix costing zero
provider calls.

The matrix enumerates every boundary mechanically: a probe run arms a
:class:`CrashPoint` on a name that never fires and reads its ``seen``
counter, so new boundaries added to the runtime are covered the moment
they are announced.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.runtime.checkpoint import RunCheckpoint
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset
from repro.datasets.names import generate_name_dataset
from repro.llm.faults import (
    ChaosProvider,
    CrashInjected,
    CrashPoint,
    FaultKind,
    FaultSpec,
)
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.obs import Observability
from repro.tasks.entity_resolution import (
    pairs_as_inputs,
    pick_examples,
    run_lingua_manga_er,
)
from repro.tasks.imputation import run_hybrid_imputation, run_llm_imputation
from repro.tasks.name_extraction import run_name_extraction
from tests.conftest import assert_reports_identical
from tests.oracles import trace_records

#: Every boundary the runtime announces (see repro.core.runtime.checkpoint).
BOUNDARIES = (
    "chunk:entered",
    "chunk:executed",
    "chunk:journaled",
    "operator:committed",
)

MATRIX_WORKERS = (1, 2, 8)
MATRIX_PHASES = ("cold", "warm")

APPS = {
    "er": lambda system, data, workers, **kw: run_lingua_manga_er(
        system, data, workers=workers, **kw
    ),
    "names": lambda system, data, workers, **kw: run_name_extraction(
        system, data, workers=workers, **kw
    ),
    "imputation": lambda system, data, workers, **kw: run_llm_imputation(
        system, data, workers=workers, **kw
    ),
    # Its LLMGC operator cannot be split: it pays inside one whole chunk.
    "imputation_hybrid": lambda system, data, workers, **kw: run_hybrid_imputation(
        system, data, workers=workers, **kw
    ),
}


def _run_app(app, data, workers, cache_path=None, obs=None, **checkpoint_kwargs):
    system = LinguaManga(cache_path=cache_path, obs=obs)
    return APPS[app](system, data, workers, **checkpoint_kwargs)


@pytest.fixture(scope="module")
def datasets():
    return {
        "er": generate_er_dataset("beer", seed=7, n_entities=60),
        "names": generate_name_dataset(seed=3, n_documents=12).documents,
        "imputation": generate_buy_dataset(seed=11, n_train=8, n_test=12).test,
        "imputation_hybrid": generate_buy_dataset(seed=11, n_train=8, n_test=12).test,
    }


@pytest.fixture(scope="module")
def warm_seeds(datasets, tmp_path_factory):
    """One cold run per app seeds a cache journal; tests copy it per kill."""
    seeds = {}
    for app in APPS:
        path = tmp_path_factory.mktemp(f"seed-{app}") / "cache.jsonl"
        _run_app(app, datasets[app], workers=1, cache_path=str(path))
        seeds[app] = path
    return seeds


@pytest.fixture(scope="module")
def baselines(datasets, warm_seeds, tmp_path_factory):
    """Uninterrupted, *uncheckpointed* reports: the byte-identity target."""
    target = {}
    for app in APPS:
        target[(app, "cold")] = _run_app(
            app, datasets[app], workers=1
        ).report.canonical_json()
        journal = tmp_path_factory.mktemp(f"base-{app}") / "cache.jsonl"
        shutil.copy(warm_seeds[app], journal)
        target[(app, "warm")] = _run_app(
            app, datasets[app], workers=1, cache_path=str(journal)
        ).report.canonical_json()
    return target


@pytest.fixture(scope="module")
def boundary_counts(datasets, tmp_path_factory):
    """How often each boundary fires per app (probe run, nothing killed)."""
    counts = {}
    for app in APPS:
        probe = CrashPoint("__probe__")
        wal = tmp_path_factory.mktemp(f"probe-{app}") / "run.wal"
        _run_app(
            app,
            datasets[app],
            workers=2,
            checkpoint=RunCheckpoint(wal, crash=probe),
        )
        assert not probe.fired
        counts[app] = dict(probe.seen)
    return counts


@pytest.mark.parametrize("phase", MATRIX_PHASES)
@pytest.mark.parametrize("workers", MATRIX_WORKERS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("app", sorted(APPS))
class TestCrashMatrix:
    def test_kill_at_every_boundary_then_resume(
        self,
        app,
        boundary,
        workers,
        phase,
        datasets,
        baselines,
        warm_seeds,
        boundary_counts,
        tmp_path,
    ):
        data = datasets[app]
        total = boundary_counts[app].get(boundary, 0)
        assert total > 0, f"probe run never reached {boundary!r} for {app}"
        for hit in range(1, total + 1):
            cache_path = None
            if phase == "warm":
                cache_path = str(tmp_path / f"{boundary.replace(':', '-')}-{hit}.jsonl")
                shutil.copy(warm_seeds[app], cache_path)
            wal = tmp_path / f"{boundary.replace(':', '-')}-{hit}.wal"
            crash = CrashPoint(boundary, hits=hit)
            with pytest.raises(CrashInjected):
                _run_app(
                    app,
                    data,
                    workers,
                    cache_path=cache_path,
                    checkpoint=RunCheckpoint(wal, crash=crash),
                )
            assert crash.fired
            resumed = _run_app(
                app,
                data,
                workers,
                cache_path=cache_path,
                checkpoint=RunCheckpoint(wal),
            )
            assert_reports_identical(baselines[(app, phase)], resumed.report)


class TestResumeDetails:
    """Targeted single-scenario checks riding on the ER app."""

    def test_resume_at_a_different_worker_count(self, datasets, baselines, tmp_path):
        wal = tmp_path / "run.wal"
        crash = CrashPoint("chunk:journaled", hits=1)
        with pytest.raises(CrashInjected):
            _run_app(
                "er", datasets["er"], 8, checkpoint=RunCheckpoint(wal, crash=crash)
            )
        resumed = _run_app("er", datasets["er"], 2, checkpoint=RunCheckpoint(wal))
        assert_reports_identical(baselines[("er", "cold")], resumed.report)

    def test_resumed_trace_is_byte_identical(self, datasets, tmp_path):
        baseline_obs = Observability()
        _run_app("er", datasets["er"], 2, obs=baseline_obs)
        wal = tmp_path / "run.wal"
        crash = CrashPoint("operator:committed", hits=1)
        with pytest.raises(CrashInjected):
            _run_app(
                "er",
                datasets["er"],
                2,
                obs=Observability(),
                checkpoint=RunCheckpoint(wal, crash=crash),
            )
        resumed_obs = Observability()
        _run_app(
            "er", datasets["er"], 2, obs=resumed_obs, checkpoint=RunCheckpoint(wal)
        )
        assert trace_records(resumed_obs.tracer) == trace_records(baseline_obs.tracer)

    def test_replayed_prefix_costs_zero_provider_calls(self, datasets, tmp_path):
        full_provider = SimulatedProvider()
        full = run_name_extraction(
            LinguaManga(service=LLMService(full_provider)),
            datasets["names"],
            workers=2,
        )
        wal = tmp_path / "run.wal"
        crash = CrashPoint("operator:committed", hits=5)
        with pytest.raises(CrashInjected):
            _run_app(
                "names",
                datasets["names"],
                2,
                checkpoint=RunCheckpoint(wal, crash=crash),
            )
        resume = RunCheckpoint(wal)
        resumed_provider = SimulatedProvider()
        resumed = run_name_extraction(
            LinguaManga(service=LLMService(resumed_provider)),
            datasets["names"],
            workers=2,
            checkpoint=resume,
        )
        assert resume.stats.resumed
        assert resume.stats.replayed_operators >= 5
        assert resume.stats.replayed_records > 0
        # The resumed *process* pays the provider only for the suffix...
        assert 0 < resumed_provider.calls_served < full_provider.calls_served
        # ...yet the merged report declares the full run's cost, byte for byte.
        assert resumed.llm_calls == full.llm_calls
        assert resumed.report.canonical_json() == full.report.canonical_json()

    def test_resuming_a_completed_journal_replays_everything(
        self, datasets, baselines, tmp_path
    ):
        wal = tmp_path / "run.wal"
        first = _run_app("er", datasets["er"], 2, checkpoint=RunCheckpoint(wal))
        resume = RunCheckpoint(wal)
        provider = SimulatedProvider()
        again = run_lingua_manga_er(
            LinguaManga(service=LLMService(provider)),
            datasets["er"],
            workers=2,
            checkpoint=resume,
        )
        assert_reports_identical(
            baselines[("er", "cold")], first.report, again.report
        )
        assert resume.stats.replayed_operators > 0
        assert provider.calls_served == 0  # k == n: nothing left to execute

    def test_crash_before_first_chunk_resumes_cleanly(
        self, datasets, baselines, tmp_path
    ):
        # workers=1 keeps execution serial, so killing at the first
        # chunk:entered guarantees no chunk was executed or journalled —
        # the resume replays only whatever upstream operators committed.
        wal = tmp_path / "run.wal"
        crash = CrashPoint("chunk:entered", hits=1)
        with pytest.raises(CrashInjected):
            _run_app(
                "er", datasets["er"], 1, checkpoint=RunCheckpoint(wal, crash=crash)
            )
        resume = RunCheckpoint(wal)
        resumed = _run_app("er", datasets["er"], 1, checkpoint=resume)
        assert resume.stats.resumed  # header was durable before the kill
        assert resume.stats.replayed_chunks == 0
        assert_reports_identical(baselines[("er", "cold")], resumed.report)


def _run_chaos_er(dataset, workers, checkpoint=None):
    """ER through a transient-fault provider; a record that gives up is skipped."""
    provider = ChaosProvider(
        SimulatedProvider(), [FaultSpec(kind=FaultKind.TRANSIENT, rate=0.3)], seed=7
    )
    system = LinguaManga(service=LLMService(provider))
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4), error_policy="skip_record"
    )
    return system.run(
        pipeline,
        {"pairs": pairs_as_inputs(dataset.test)},
        workers=workers,
        chunk_size=2,
        checkpoint=checkpoint,
    )


class TestChaosResume:
    """A fault is a function of (prompt, attempt), so a run killed mid-
    operator re-draws exactly the faults the uninterrupted run drew: the
    journal carries no fault state and needs none."""

    @pytest.fixture(scope="class")
    def chaos_baseline(self, datasets):
        report = _run_chaos_er(datasets["er"], workers=1)
        assert report.cost.retries > 0
        return report.canonical_json()

    @pytest.mark.parametrize("workers", MATRIX_WORKERS)
    def test_kill_at_every_journaled_chunk_then_resume(
        self, workers, datasets, chaos_baseline, tmp_path
    ):
        probe = CrashPoint("__probe__")
        _run_chaos_er(
            datasets["er"], workers, RunCheckpoint(tmp_path / "probe.wal", crash=probe)
        )
        total = probe.seen["chunk:journaled"]
        assert total > 1
        for hit in range(1, total + 1):
            wal = tmp_path / f"chunk-journaled-{hit}.wal"
            crash = CrashPoint("chunk:journaled", hits=hit)
            with pytest.raises(CrashInjected):
                _run_chaos_er(datasets["er"], workers, RunCheckpoint(wal, crash=crash))
            resumed = _run_chaos_er(datasets["er"], workers, RunCheckpoint(wal))
            assert_reports_identical(chaos_baseline, resumed.canonical_json())
