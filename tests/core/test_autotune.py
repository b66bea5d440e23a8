"""End-to-end tests for profile-driven autotuning.

The contract: ``autotune=True`` NEVER changes outputs.  Cold runs with an
empty store behave exactly like untuned runs; warm runs apply only knobs
proven byte-identical (and prove warmth against the live cache before
touching the warm-only ones); every decision — applied or advisory — is
audited in ``report.tuning``; and the second run of the same app over the
same cache+store is measurably cheaper than the first.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.core.optimizer.autotune import (
    PlanTuner,
    ProfileStore,
    resolve_profile_path,
)
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.datasets.entity_resolution import generate_er_dataset
from repro.tasks.entity_resolution import run_lingua_manga_er


# CI's autotune-determinism matrix narrows the pinned worker counts per
# cell (each cell still compares against the workers=1 baseline); local
# runs cover the full set.
PINNED_WORKER_MATRIX = tuple(
    int(count)
    for count in os.environ.get("AUTOTUNE_MATRIX_WORKERS", "1 2 8").split()
)


@pytest.fixture(scope="module")
def er_dataset():
    return generate_er_dataset("beer", seed=7, n_entities=60)


def _paths(tmp_path, name):
    return tmp_path / f"{name}-cache.jsonl", tmp_path / f"{name}-prof.jsonl"


def _run(er_dataset, cache, profile, autotune=True, **kwargs):
    system = LinguaManga(cache_path=str(cache))
    return run_lingua_manga_er(
        system,
        er_dataset,
        autotune=autotune,
        profile_path=str(profile),
        **kwargs,
    )


class TestByteIdentity:
    def test_cold_run_matches_untuned(self, tmp_path, er_dataset):
        cache_a, prof = _paths(tmp_path, "a")
        cache_b, _ = _paths(tmp_path, "b")
        untuned = _run(er_dataset, cache_a, prof, autotune=False)
        tuned = _run(er_dataset, cache_b, prof)
        assert (
            untuned.report.canonical_json() == tuned.report.canonical_json()
        )
        assert untuned.report.tuning is None
        assert tuned.report.tuning is not None
        # An empty store proposes nothing: no history, no decisions.
        assert tuned.report.tuning["decisions"] == []
        assert tuned.report.tuning["verified_warm"] is False

    def test_warm_run_matches_untuned_warm_run(self, tmp_path, er_dataset):
        cache_a, prof = _paths(tmp_path, "a")
        cache_b, prof_b = _paths(tmp_path, "b")
        _run(er_dataset, cache_a, prof)  # cold, seeds cache + store
        _run(er_dataset, cache_b, prof_b, autotune=False)  # cold control
        untuned = _run(er_dataset, cache_b, prof_b, autotune=False)
        tuned = _run(er_dataset, cache_a, prof)
        assert (
            untuned.report.canonical_json() == tuned.report.canonical_json()
        )
        tuning = tuned.report.tuning
        assert tuning["verified_warm"] is True
        applied = {
            (d["op"], d["knob"]) for d in tuning["decisions"] if d["applied"]
        }
        assert ("*", "workers") in applied

    def test_tuning_excluded_from_canonical_report(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        result = _run(er_dataset, cache, prof)
        assert result.report.tuning is not None
        assert "tuning" not in json.loads(result.report.canonical_json())
        # ... but rendered in the human-facing text.
        _run(er_dataset, cache, prof)


class TestConvergence:
    def test_second_run_is_cheaper(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        first = _run(er_dataset, cache, prof)
        second = _run(er_dataset, cache, prof)
        assert first.cost > 0
        assert second.cost == 0.0
        assert second.llm_calls == 0
        # Identical task metrics either way.
        assert second.f1 == first.f1
        assert second.predictions == first.predictions

    def test_predictions_recorded_and_reconciled(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)
        second = _run(er_dataset, cache, prof)
        tuning = second.report.tuning
        # Verified warm: zero provider cost predicted, zero realized.
        assert tuning["predicted"]["cost"] == 0.0
        assert tuning["actual"]["cost"] == 0.0
        assert tuning["delta"]["cost"] == 0.0
        assert tuning["actual"]["provider_calls"] == 0

    def test_store_accumulates_observations(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)
        _run(er_dataset, cache, prof)
        store = ProfileStore(prof)
        state = store.state_dict()
        assert len(state["runs"]) == 1
        (plan_key,) = state["runs"]
        assert len(store.runs(plan_key)) == 2
        assert store.observations(plan_key)  # per-operator rows present
        store.close()


class TestDecisionDeterminism:
    def test_pinned_workers_identical_decisions(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)  # seed
        outcomes = []
        for workers in sorted({1, *PINNED_WORKER_MATRIX}):
            result = _run(er_dataset, cache, prof, workers=workers)
            tuning = result.report.tuning
            assert tuning["pinned"]["workers"] == workers
            outcomes.append(
                (
                    result.report.canonical_json(),
                    json.dumps(tuning["decisions"], sort_keys=True),
                )
            )
        reports = {report for report, _ in outcomes}
        decisions = {decision for _, decision in outcomes}
        assert len(reports) == 1
        assert len(decisions) == 1

    def test_pinned_knobs_never_overridden(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)
        result = _run(er_dataset, cache, prof, workers=2)
        tuning = result.report.tuning
        assert tuning["pinned"] == {"workers": 2}
        knobs = {d["knob"] for d in tuning["decisions"]}
        assert "workers" not in knobs

    def test_parent_written_store_gives_same_decisions(self, tmp_path, er_dataset):
        """Journals written before the ``columnar`` knob was deleted carry
        ``knobs.columnar``; they must load whole and tune exactly like a
        journal written today."""
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)  # seed cache + store
        old_cache, old_prof = _paths(tmp_path, "old")
        shutil.copy(cache, old_cache)
        lines = [json.loads(line) for line in prof.read_text().splitlines()]
        for line in lines:
            line["knobs"]["columnar"] = None
        old_prof.write_text("".join(json.dumps(line) + "\n" for line in lines))
        store = ProfileStore(old_prof)
        assert (store.lines_loaded, store.torn_bytes) == (len(lines), 0)
        store.close()
        current = _run(er_dataset, cache, prof).report.tuning
        old = _run(er_dataset, old_cache, old_prof).report.tuning
        assert old["verified_warm"] is True
        assert {d["knob"] for d in old["decisions"]} == {
            "workers", "chunk_size", "prefetch"
        }
        assert old["decisions"] == current["decisions"]


class TestCheckpointInteraction:
    def test_checkpointed_autotune_stays_resumable(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)  # warm the store + cache
        ckpt = tmp_path / "run.ckpt.jsonl"
        result = _run(er_dataset, cache, prof, checkpoint_path=str(ckpt))
        tuning = result.report.tuning
        # Chunk-size/prefetch tuning must NOT apply: tuned boundaries are
        # not what the journal would record.
        for decision in tuning["decisions"]:
            if decision["knob"] in ("chunk_size", "prefetch"):
                assert not decision["applied"]
        control = _run(er_dataset, cache, prof, autotune=False, workers=1)
        assert (
            result.report.canonical_json() == control.report.canonical_json()
        )


class TestStreaming:
    def _stream(self, tmp_path, autotune, name="s", workers=None):
        corpus = StreamingERCorpus(32, seed=7)
        pipeline = get_template("entity_resolution").instantiate(
            examples=StreamingERCorpus(32, seed=7).examples()
        )
        system = LinguaManga(cache_path=str(tmp_path / f"{name}-cache.jsonl"))
        return system.run_stream(
            pipeline,
            {"pairs": corpus.inputs()},
            workers=workers,
            chunk_size=8,
            source_id=corpus.fingerprint,
            autotune=autotune,
            profile_path=str(tmp_path / f"{name}-prof.jsonl"),
        )

    def test_streaming_cold_matches_untuned(self, tmp_path):
        untuned = self._stream(tmp_path, autotune=False, name="a", workers=1)
        tuned = self._stream(tmp_path, autotune=True, name="b")
        assert untuned.canonical_json() == tuned.canonical_json()

    def test_streaming_warm_tunes_workers_only(self, tmp_path):
        self._stream(tmp_path, autotune=True, name="a")
        self._stream(tmp_path, autotune=False, name="b", workers=1)
        untuned = self._stream(tmp_path, autotune=False, name="b", workers=1)
        tuned = self._stream(tmp_path, autotune=True, name="a")
        assert untuned.canonical_json() == tuned.canonical_json()
        applied = {
            d["knob"] for d in tuned.tuning["decisions"] if d["applied"]
        }
        assert applied <= {"workers"}

    def test_stream_never_verifies_warm_even_from_legacy_store(self, tmp_path):
        """A warm-looking store must not unlock chunk/prefetch for streams.

        The streaming plan key is built from ``fingerprint(None)`` — it
        excludes the input data — so stored digests from a previous run
        prove nothing about the incoming iterable.  Even a store whose
        last stream run claims ``warm_eligible`` with every digest live
        in the exact tier (e.g. written before the engine gate existed)
        must tune workers only.
        """
        from repro.core.optimizer.autotune import (
            Observation,
            RunObservation,
            op_config_digest,
        )

        corpus = StreamingERCorpus(16, seed=7)
        pairs = list(corpus.inputs())
        pipeline = get_template("entity_resolution").instantiate(
            examples=StreamingERCorpus(16, seed=7).examples()
        )
        system = LinguaManga(cache_path=str(tmp_path / "cache.jsonl"))
        plan = system.compile(pipeline)
        plan.execute({"pairs": pairs})  # warm the live exact tier
        live = system.service.cache.exact_digests()
        assert live

        store = ProfileStore(None)
        tuner = PlanTuner(store, plan, system.service, engine="stream")
        plan_key = tuner.plan_key(None)
        for binding in plan.bound:
            store.append(
                Observation(
                    plan=plan_key,
                    op=binding.operator.name,
                    op_config=op_config_digest(binding.module.config_identity()),
                    engine="stream",
                    records_in=len(pairs),
                    row={"calls": len(pairs), "provider_calls": len(pairs),
                         "cost": 0.1, "provider_seconds": 1.0},
                    wall_seconds=0.05,
                    knobs={},
                )
            )
        store.append(
            RunObservation(
                plan=plan_key,
                engine="stream",
                seq=1,
                records_in=len(pairs),
                totals={},
                wall_seconds=0.1,
                knobs={},
                coalesced=0,
                latency_hist=[],
                key_digests=sorted(live),
                warm_eligible=True,  # forged: pre-gate stores could claim this
            )
        )
        tuning = tuner.tune(None)
        assert tuning.verified_warm is False
        knobs = {decision.knob for decision in tuning.decisions}
        assert "chunk_size" not in knobs
        assert "prefetch" not in knobs
        assert tuning.module_knobs == []

    def test_stream_runs_recorded_warm_ineligible(self, tmp_path):
        """Stream run lines persist ``warm_eligible=False`` by design."""
        self._stream(tmp_path, autotune=True, name="a")
        store = ProfileStore(tmp_path / "a-prof.jsonl")
        (plan_key,) = store.state_dict()["runs"]
        last = store.last_run(plan_key)
        assert last.warm_eligible is False
        assert last.key_digests == []
        store.close()

    def test_distilled_seconds_surfaced_separately(self, tmp_path):
        report = self._stream(tmp_path, autotune=False, name="a", workers=1)
        payload = json.loads(report.canonical_json())
        assert "provider_seconds" in payload["cost"]
        assert "distilled_seconds" in payload["cost"]
        assert payload["cost"]["distilled_seconds"] == 0.0


class TestRunSeq:
    def test_seq_outlives_compaction_window(self, tmp_path):
        """Run seq keeps counting past the keep-N retention window.

        The store retains at most ``keep`` runs per plan, so deriving seq
        from the bucket length would saturate at keep+1; it must continue
        from the last retained run's seq instead.
        """
        from repro.core.optimizer.autotune import observe_run

        corpus = StreamingERCorpus(8, seed=7)
        pairs = list(corpus.inputs())
        pipeline = get_template("entity_resolution").instantiate(
            examples=StreamingERCorpus(8, seed=7).examples()
        )
        system = LinguaManga(cache_path=str(tmp_path / "cache.jsonl"))
        store = ProfileStore(tmp_path / "prof.jsonl", keep=2)
        plan_key = None
        for _ in range(4):
            plan = system.compile(pipeline)
            tuner = PlanTuner(store, plan, system.service, engine="batch")
            tuning = tuner.tune({"pairs": pairs})
            with tuning.applied(), observe_run() as walltime:
                report = plan.execute({"pairs": pairs})
            tuner.record(report, walltime["wall_seconds"])
            plan_key = tuning.plan_key
        assert [run.seq for run in store.runs(plan_key)] == [3, 4]
        store.close()


class TestStoreResolution:
    def test_derives_path_beside_cache_journal(self, tmp_path):
        system = LinguaManga(cache_path=str(tmp_path / "cache.jsonl"))
        path = resolve_profile_path(None, system.service)
        assert path == tmp_path / "cache.autotune.jsonl"

    def test_explicit_path_wins(self, tmp_path):
        system = LinguaManga(cache_path=str(tmp_path / "cache.jsonl"))
        explicit = tmp_path / "elsewhere.jsonl"
        assert resolve_profile_path(explicit, system.service) == explicit

    def test_memory_only_without_cache_journal(self):
        system = LinguaManga()
        assert resolve_profile_path(None, system.service) is None
        # Memory-only store still powers a full tune/record cycle.
        store = ProfileStore(None)
        assert store.compact() == 0


class TestTraceAndText:
    def test_tuning_span_emitted_when_observed(self, tmp_path, er_dataset):
        from repro.obs import Observability

        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)
        obs = Observability()
        system = LinguaManga(cache_path=str(cache), obs=obs)
        run_lingua_manga_er(
            system, er_dataset, autotune=True, profile_path=str(prof)
        )
        spans = [
            record
            for record in obs.tracer.to_records()
            if record.get("kind") == "tuning"
        ]
        assert len(spans) == 1
        assert spans[0]["attributes"]["decisions"] > 0

    def test_to_text_renders_decisions(self, tmp_path, er_dataset):
        cache, prof = _paths(tmp_path, "a")
        _run(er_dataset, cache, prof)
        second = _run(er_dataset, cache, prof)
        text = second.report.to_text()
        assert "tuning:" in text
        assert "workers" in text
