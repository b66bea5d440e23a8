"""Chaos matrix for the streaming work-queue executor.

The tentpole invariant (PR 6): a streaming run killed at *any* shard
boundary and then resumed produces a :class:`RunReport` byte-identical to
an uninterrupted run, at workers 1, 2 and 8, cold or warm cache.

Boundaries are enumerated mechanically with a probe run (a
:class:`CrashPoint` armed on a name that never fires, read back through
``seen``), mirroring ``test_crash_resume.py``; CI narrows the sweep per
matrix cell via ``STREAM_MATRIX_WORKERS`` / ``STREAM_MATRIX_PHASES``.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.datasets import StreamingERCorpus
from repro.llm.faults import CrashInjected, CrashPoint
from tests.conftest import assert_reports_identical

#: Every boundary the streaming executor announces (see workqueue._announce).
BOUNDARIES = ("shard:claimed", "shard:executed", "shard:journaled")

_ENV_WORKERS = os.environ.get("STREAM_MATRIX_WORKERS")
MATRIX_WORKERS = (
    tuple(int(item) for item in _ENV_WORKERS.split(",")) if _ENV_WORKERS else (1, 2, 8)
)
_ENV_PHASES = os.environ.get("STREAM_MATRIX_PHASES")
MATRIX_PHASES = tuple(_ENV_PHASES.split(",")) if _ENV_PHASES else ("cold", "warm")

CORPUS = StreamingERCorpus(24, seed=7)
CHUNK = 8  # -> 3 shards


def run_er(workers, cache_path=None, service=None, **stream_kwargs):
    system = LinguaManga(service=service, cache_path=cache_path)
    pipeline = get_template("entity_resolution").instantiate(
        examples=CORPUS.examples()
    )
    report = system.run_stream(
        pipeline,
        {"pairs": CORPUS.inputs()},
        workers=workers,
        chunk_size=CHUNK,
        source_id=CORPUS.fingerprint,
        **stream_kwargs,
    )
    return report, system


@pytest.fixture(scope="module")
def warm_seed(tmp_path_factory):
    """One cold run seeds a cache journal; tests copy it per kill."""
    path = tmp_path_factory.mktemp("seed") / "cache.jsonl"
    run_er(workers=1, cache_path=str(path))
    return path


@pytest.fixture(scope="module")
def baselines(warm_seed, tmp_path_factory):
    """Uninterrupted, *unledgered* reports: the byte-identity target."""
    target = {"cold": run_er(workers=1)[0].canonical_json()}
    journal = tmp_path_factory.mktemp("base") / "cache.jsonl"
    shutil.copy(warm_seed, journal)
    target["warm"] = run_er(workers=1, cache_path=str(journal))[0].canonical_json()
    return target


@pytest.fixture(scope="module")
def boundary_counts(tmp_path_factory):
    """How often each boundary fires in a clean run (probe, nothing killed)."""
    probe = CrashPoint("__probe__")
    wal = tmp_path_factory.mktemp("probe") / "run.wal"
    run_er(workers=2, ledger_path=wal, crash=probe)
    assert not probe.fired
    counts = dict(probe.seen)
    assert set(counts) == set(BOUNDARIES)
    return counts


def _cache_for(phase, warm_seed, tmp_path, tag):
    if phase == "cold":
        return None
    path = tmp_path / f"{tag}.cache.jsonl"
    shutil.copy(warm_seed, path)
    return str(path)


@pytest.mark.parametrize("phase", MATRIX_PHASES)
@pytest.mark.parametrize("workers", MATRIX_WORKERS)
@pytest.mark.parametrize("boundary", BOUNDARIES)
class TestStreamingCrashMatrix:
    def test_crash_at_every_shard_boundary_then_resume(
        self, boundary, workers, phase, baselines, warm_seed, boundary_counts, tmp_path
    ):
        total = boundary_counts[boundary]
        assert total > 0
        for hit in range(1, total + 1):
            tag = f"{boundary.replace(':', '-')}-{hit}"
            cache_path = _cache_for(phase, warm_seed, tmp_path, tag)
            wal = tmp_path / f"{tag}.wal"
            crash = CrashPoint(boundary, hits=hit)
            with pytest.raises(CrashInjected):
                run_er(workers, cache_path=cache_path, ledger_path=wal, crash=crash)
            assert crash.fired
            resumed, _ = run_er(workers, cache_path=cache_path, ledger_path=wal)
            assert_reports_identical(baselines[phase], resumed)


class TestResumeDetails:
    def test_resume_at_a_different_worker_count(self, baselines, tmp_path):
        wal = tmp_path / "run.wal"
        crash = CrashPoint("shard:journaled", hits=1)
        with pytest.raises(CrashInjected):
            run_er(8, ledger_path=wal, crash=crash)
        resumed, _ = run_er(2, ledger_path=wal)
        assert_reports_identical(baselines["cold"], resumed)

    def test_resumed_suffix_pays_only_for_unjournaled_shards(
        self, baselines, tmp_path
    ):
        # The streaming fold keeps per-operator accumulators instead of the
        # service call ledger (retaining records would be O(dataset)), so
        # the replayed-prefix-costs-nothing claim is probed at the provider.
        full_provider = SimulatedProvider()
        run_er(1, service=LLMService(full_provider))
        wal = tmp_path / "run.wal"
        crash = CrashPoint("shard:journaled", hits=2)
        with pytest.raises(CrashInjected):
            run_er(1, ledger_path=wal, crash=crash)
        resumed_provider = SimulatedProvider()
        resumed, _ = run_er(
            1, ledger_path=wal, service=LLMService(resumed_provider)
        )
        assert_reports_identical(baselines["cold"], resumed)
        assert resumed.recovery["resumed"]
        assert resumed.recovery["replayed_shards"] == 2
        assert 0 < resumed_provider.calls_served < full_provider.calls_served

    def test_crash_before_any_shard_resumes_cleanly(self, baselines, tmp_path):
        wal = tmp_path / "run.wal"
        crash = CrashPoint("shard:claimed", hits=1)
        with pytest.raises(CrashInjected):
            run_er(1, ledger_path=wal, crash=crash)
        resumed, _ = run_er(1, ledger_path=wal)
        assert resumed.recovery["replayed_shards"] == 0
        assert_reports_identical(baselines["cold"], resumed)
