"""Golden end-to-end regressions for the three demo applications.

Every value here was observed on the seed datasets with the simulated
provider and is pinned **exactly**: the provider, the prompt builders, the
dataset generators and the execution engine are all deterministic, so any
drift in these numbers is a behaviour change that must be deliberate.
The parallel variants additionally pin that the scheduler reproduces the
sequential task metrics bit for bit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.runtime.system import LinguaManga
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset
from repro.datasets.names import generate_name_dataset
from repro.obs import Observability
from repro.tasks.entity_resolution import run_lingua_manga_er
from repro.tasks.imputation import run_hybrid_imputation, run_llm_imputation
from repro.tasks.name_extraction import run_name_extraction

from ..oracles import provenance_counts, span_tree_problems, trace_records


@pytest.fixture(scope="module")
def er_dataset():
    return generate_er_dataset("beer", seed=7)


@pytest.fixture(scope="module")
def name_documents():
    return generate_name_dataset(seed=3, n_documents=80).documents


@pytest.fixture(scope="module")
def buy_dataset():
    return generate_buy_dataset(seed=11, n_train=60, n_test=120)


class TestEntityResolutionGolden:
    F1 = 0.9090909090909091
    CALLS = 175
    COST = 0.08776000000000005

    def test_sequential(self, er_dataset):
        result = run_lingua_manga_er(LinguaManga(), er_dataset)
        assert result.f1 == self.F1
        assert result.llm_calls == self.CALLS
        assert result.cost == pytest.approx(self.COST, abs=1e-12)

    def test_parallel_matches_golden(self, er_dataset):
        result = run_lingua_manga_er(LinguaManga(), er_dataset, workers=8)
        assert result.f1 == self.F1
        assert result.llm_calls == self.CALLS
        assert result.cost == pytest.approx(self.COST, abs=1e-12)


class TestNameExtractionGolden:
    PRECISION = 0.864406779661017
    RECALL = 0.9272727272727272
    F1 = 0.8947368421052632
    CALLS = 189
    COST = 0.015868999999999963

    def test_sequential(self, name_documents):
        result = run_name_extraction(LinguaManga(), name_documents)
        assert result.precision == self.PRECISION
        assert result.recall == self.RECALL
        assert result.f1 == self.F1
        assert result.llm_calls == self.CALLS
        assert result.cost == pytest.approx(self.COST, abs=1e-12)

    def test_parallel_matches_golden(self, name_documents):
        result = run_name_extraction(LinguaManga(), name_documents, workers=4)
        assert result.f1 == self.F1
        assert result.llm_calls == self.CALLS
        assert result.cost == pytest.approx(self.COST, abs=1e-12)

    def test_multilingual_beats_monolingual(self, name_documents):
        multilingual = run_name_extraction(LinguaManga(), name_documents)
        monolingual = run_name_extraction(
            LinguaManga(), name_documents, multilingual=False
        )
        assert multilingual.f1 > monolingual.f1


class TestImputationGolden:
    PURE_ACCURACY = 0.9416666666666667
    PURE_CALLS = 120
    PURE_COST = 0.014065000000000003
    HYBRID_ACCURACY = 0.9583333333333334
    HYBRID_CALLS = 25
    HYBRID_COST = 0.0038775000000000007

    def test_pure_llm(self, buy_dataset):
        result = run_llm_imputation(LinguaManga(), buy_dataset.test)
        assert result.accuracy == self.PURE_ACCURACY
        assert result.llm_calls == self.PURE_CALLS
        assert result.cost == pytest.approx(self.PURE_COST, abs=1e-12)

    def test_pure_llm_parallel_matches_golden(self, buy_dataset):
        result = run_llm_imputation(LinguaManga(), buy_dataset.test, workers=8)
        assert result.accuracy == self.PURE_ACCURACY
        assert result.llm_calls == self.PURE_CALLS
        assert result.cost == pytest.approx(self.PURE_COST, abs=1e-12)

    def test_hybrid(self, buy_dataset):
        result = run_hybrid_imputation(LinguaManga(), buy_dataset.test)
        assert result.accuracy == self.HYBRID_ACCURACY
        assert result.llm_calls == self.HYBRID_CALLS
        assert result.cost == pytest.approx(self.HYBRID_COST, abs=1e-12)

    def test_hybrid_is_cheaper_and_no_worse(self, buy_dataset):
        # The paper's headline: the optimized hybrid uses a fraction of
        # the LLM calls while matching or beating pure-LLM accuracy.
        pure = run_llm_imputation(LinguaManga(), buy_dataset.test)
        hybrid = run_hybrid_imputation(LinguaManga(), buy_dataset.test)
        assert hybrid.llm_calls < pure.llm_calls / 3
        assert hybrid.accuracy >= pure.accuracy


# -- golden traces (ISSUE 4 satellite 1) -----------------------------------------
#
# Each demo app is traced cold (fresh cache) and warm (second run over the
# same journal) at workers 1, 2 and 8.  The exported span records must be
# byte-identical across worker counts, match the JSONL fixtures under
# golden_traces/ byte for byte (cost fields normalized at export — rounded
# to declared precision).
#
# Regenerate fixtures after a *deliberate* behaviour change with:
#     REGEN_GOLDEN_TRACES=1 PYTHONPATH=src python -m pytest \
#         tests/integration/test_golden_regression.py -q

GOLDEN_TRACE_DIR = Path(__file__).parent / "golden_traces"
TRACE_WORKER_COUNTS = (1, 2, 8)
_REGEN = os.environ.get("REGEN_GOLDEN_TRACES") == "1"


def _records_text(records: list[dict]) -> str:
    return "".join(
        json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        for record in records
    )


def _assert_matches_fixture(fixture_name: str, records: list[dict]) -> None:
    GOLDEN_TRACE_DIR.mkdir(exist_ok=True)
    path = GOLDEN_TRACE_DIR / fixture_name
    text = _records_text(records)
    if _REGEN or not path.exists():
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text, (
        f"trace drifted from fixture {fixture_name}; if the change is "
        f"deliberate, regenerate with REGEN_GOLDEN_TRACES=1"
    )


class _GoldenTraceSuite:
    """Shared machinery: subclasses define ``app`` and the fixture stem."""

    stem: str

    def run_app(self, system: LinguaManga, data, workers: int):
        raise NotImplementedError

    def traced(self, data, workers: int, journal=None):
        obs = Observability()
        system = LinguaManga(obs=obs, cache_path=journal)
        result = self.run_app(system, data, workers)
        return obs, result

    @pytest.fixture(scope="class")
    def traces(self, request, tmp_path_factory):
        data = request.getfixturevalue(self.data_fixture)
        journal = str(tmp_path_factory.mktemp(self.stem) / "cache.jsonl")
        cold = {}
        for workers in TRACE_WORKER_COUNTS:
            # Each cold run gets a fresh journal so every worker count pays
            # the provider; the shared journal is primed once for warm runs.
            solo = str(tmp_path_factory.mktemp(f"{self.stem}{workers}") / "c.jsonl")
            cold[workers] = self.traced(data, workers, journal=solo)
        self.traced(data, TRACE_WORKER_COUNTS[0], journal=journal)  # prime
        warm = {
            workers: self.traced(data, workers, journal=journal)
            for workers in TRACE_WORKER_COUNTS
        }
        return {"cold": cold, "warm": warm}

    @pytest.mark.parametrize("phase", ["cold", "warm"])
    def test_trace_identical_across_worker_counts(self, traces, phase):
        records = [
            trace_records(traces[phase][workers][0].tracer)
            for workers in TRACE_WORKER_COUNTS
        ]
        assert records[0] == records[1] == records[2]

    @pytest.mark.parametrize("phase", ["cold", "warm"])
    def test_trace_matches_fixture(self, traces, phase):
        obs, _ = traces[phase][1]
        _assert_matches_fixture(
            f"{self.stem}_{phase}.jsonl", trace_records(obs.tracer)
        )

    @pytest.mark.parametrize("phase", ["cold", "warm"])
    def test_trace_well_formed(self, traces, phase):
        obs, _ = traces[phase][1]
        problems = []
        for root in obs.tracer.roots:
            problems.extend(span_tree_problems(root))
        assert problems == []

    def test_warm_serves_everything_from_cache(self, traces):
        cold_counts = provenance_counts(traces["cold"][1][0].tracer.roots)
        warm_counts = provenance_counts(traces["warm"][1][0].tracer.roots)
        assert cold_counts.get("provider", 0) > 0
        assert "provider" not in warm_counts
        # Warm runs may issue *fewer* calls than cold ones (audit passes that
        # re-ask a just-answered prompt are skipped once the journal answers),
        # but every warm call must come from a cache tier.
        assert 0 < sum(warm_counts.values()) <= sum(cold_counts.values())


class TestGoldenTracesEntityResolution(_GoldenTraceSuite):
    stem = "er"
    data_fixture = "er_dataset"

    def run_app(self, system, data, workers):
        return run_lingua_manga_er(system, data, workers=workers)


class TestGoldenTracesNameExtraction(_GoldenTraceSuite):
    stem = "names"
    data_fixture = "name_documents"

    def run_app(self, system, data, workers):
        return run_name_extraction(system, data, workers=workers)


class TestGoldenTracesImputation(_GoldenTraceSuite):
    stem = "imputation"
    data_fixture = "buy_dataset"

    def run_app(self, system, data, workers):
        return run_llm_imputation(system, data.test, workers=workers)
