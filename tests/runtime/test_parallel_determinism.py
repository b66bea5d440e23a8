"""Determinism of the parallel scheduler: the contract the engine pins.

Same seed + same fault spec must yield byte-identical canonical run
reports at any worker count.  These tests execute the real ER pipeline —
template instantiation, MapModule chunking, request coalescing, batch
prefetching — at ``workers`` 1, 2 and 8, with and without a content-keyed
:class:`ChaosProvider`, and compare :meth:`RunReport.canonical_json`
byte for byte.
"""

from __future__ import annotations

import pytest

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.tasks.blocking import block_records
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples
from tests.conftest import assert_reports_identical, block_records_reference

WORKER_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def dataset():
    return generate_er_dataset("beer", seed=7, n_entities=60)


def _run_clean(dataset, workers: int, chunk_size: int | None = None) -> str:
    system = LinguaManga()
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4)
    )
    report = system.run(
        pipeline,
        {"pairs": pairs_as_inputs(dataset.test)},
        workers=workers,
        chunk_size=chunk_size,
    )
    return report.canonical_json()


def _run_chaos(dataset, workers: int, rate: float) -> "tuple[str, object]":
    provider = ChaosProvider(
        SimulatedProvider(),
        faults=[
            FaultSpec(kind=FaultKind.TRANSIENT, rate=rate),
            FaultSpec(kind=FaultKind.MALFORMED, rate=0.15),
        ],
        seed=13,
        key_mode="content",
    )
    system = LinguaManga(service=LLMService(provider))
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4),
        error_policy="skip_record",
    )
    report = system.run(
        pipeline, {"pairs": pairs_as_inputs(dataset.test)}, workers=workers
    )
    return report.canonical_json(), report


class TestCleanDeterminism:
    def test_byte_identical_across_worker_counts(self, dataset):
        reports = [_run_clean(dataset, workers) for workers in WORKER_COUNTS]
        assert_reports_identical(*reports)

    def test_byte_identical_on_repeat(self, dataset):
        assert_reports_identical(_run_clean(dataset, 8), _run_clean(dataset, 8))

    def test_chunk_size_is_part_of_the_run_shape(self, dataset):
        # Different chunk sizes are allowed to differ (they change batch
        # prime groups); the same chunk size must not.
        assert_reports_identical(
            _run_clean(dataset, 2, chunk_size=3), _run_clean(dataset, 8, chunk_size=3)
        )

    def test_parallel_matches_sequential_results(self, dataset):
        """Outputs/quarantine/cost match the legacy path; only ledger
        cache-hit counts differ (the batched path primes the cache)."""
        import json

        sequential = json.loads(_run_clean(dataset, None))
        parallel = json.loads(_run_clean(dataset, 8))
        for key in ("pipeline", "outputs", "partial", "quarantine"):
            assert sequential[key] == parallel[key]
        assert sequential["cost"]["cost"] == parallel["cost"]["cost"]
        assert (
            sequential["cost"]["served_calls"] == parallel["cost"]["served_calls"]
        )


class TestChaosDeterminism:
    @pytest.mark.parametrize("rate", [0.35, 0.7])
    def test_byte_identical_under_faults(self, dataset, rate):
        reports = [_run_chaos(dataset, workers, rate)[0] for workers in WORKER_COUNTS]
        assert_reports_identical(*reports)

    def test_heavy_chaos_actually_quarantines(self, dataset):
        _, report = _run_chaos(dataset, 8, rate=0.7)
        assert report.partial
        assert len(report.quarantine) > 0

    def test_quarantine_order_is_stable(self, dataset):
        runs = [_run_chaos(dataset, workers, rate=0.7)[1] for workers in WORKER_COUNTS]
        keys = [
            [(q.module_name, repr(q.record), q.error) for q in run.quarantine]
            for run in runs
        ]
        assert keys[0] == keys[1] == keys[2]


class TestColumnarDeterminism:
    """The array blocking kernel agrees with its dict-probe reference."""

    def test_blocking_candidate_sets_identical(self, dataset):
        left = [dict(p.left) for p in dataset.test[:40]]
        right = [dict(p.right) for p in dataset.test[:40]]
        scalar = block_records_reference(left, right, "name")
        columnar = block_records(left, right, "name")
        assert scalar.pairs == columnar.pairs
        assert scalar.candidates_considered == columnar.candidates_considered
        assert scalar.reduction_ratio == columnar.reduction_ratio
