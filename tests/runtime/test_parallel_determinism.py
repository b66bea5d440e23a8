"""Determinism of the parallel scheduler: the contract the engine pins.

Same seed + same fault spec must yield byte-identical canonical run
reports at any worker count.  These tests execute the real ER pipeline —
template instantiation, MapModule chunking, request coalescing, batch
prefetching — at ``workers`` 1, 2 and 8, with and without a content-keyed
:class:`ChaosProvider`, and the Fig. 3 name-extraction pipeline with and
without its simulator student, and compare :meth:`RunReport.canonical_json`
byte for byte.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer.distill import DistillationRouter
from repro.core.runtime.scheduler import partition, tree_parallel_safe
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.names import generate_name_dataset
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.tasks.blocking import block_records
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples
from repro.tasks.name_extraction import run_name_extraction
from tests.conftest import assert_reports_identical, block_records_reference

WORKER_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def dataset():
    return generate_er_dataset("beer", seed=7, n_entities=60)


def _er_pipeline(dataset, **options):
    return get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4), **options
    )


def _run_clean(dataset, workers: int, chunk_size: int | None = None) -> str:
    report = LinguaManga().run(
        _er_pipeline(dataset),
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
    report = system.run(
        _er_pipeline(dataset, error_policy="skip_record"),
        {"pairs": pairs_as_inputs(dataset.test)},
        workers=workers,
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
        """Chunked at 8 workers against the reference that still exists: the
        whole-input ``module.run(list)`` a non-parallel-safe operator takes.
        Only cache-hit counts may differ (the chunked path primes in batches).
        """
        pairs = pairs_as_inputs(dataset.test)
        whole, chunked = LinguaManga(), LinguaManga()
        outputs = whole.compile(_er_pipeline(dataset)).module("match_entities_2").run(
            pairs
        )
        report = chunked.run(_er_pipeline(dataset), {"pairs": pairs}, workers=8)
        assert report.outputs == {"save_3": outputs}
        assert not report.partial
        assert report.cost.cost == whole.usage().cost
        assert report.cost.served_calls == whole.service.served_calls


class CountingProvider(SimulatedProvider):
    """The simulator, noting the size of every round trip."""

    def __init__(self):
        super().__init__()
        self.singles = 0
        self.batches: list[int] = []

    def complete(self, request):
        self.singles += 1
        return super().complete(request)

    def complete_batch(self, requests):
        self.batches.append(len(requests))
        return [SimulatedProvider.complete(self, request) for request in requests]


class TestOneEngine:
    """``run()`` without ``workers=`` is the scheduler at one worker."""

    def test_default_run_pays_one_round_trip_per_chunk(self, dataset):
        provider = CountingProvider()
        system = LinguaManga(service=LLMService(provider))
        pairs = pairs_as_inputs(dataset.test)
        report = system.run(_er_pipeline(dataset), {"pairs": pairs}, chunk_size=5)
        assert provider.singles == 0
        assert provider.batches == [len(chunk) for chunk in partition(pairs, 5)]
        assert_reports_identical(
            report.canonical_json(), _run_clean(dataset, 8, chunk_size=5)
        )

    def test_an_online_learner_still_runs_whole_input_once(self, dataset):
        plan = LinguaManga().compile(_er_pipeline(dataset, distill=True))
        matcher = plan.module("match_entities_2")
        assert not tree_parallel_safe(matcher)
        calls: list = []
        run, matcher.apply_chunk = matcher.run, lambda chunk: calls.append("chunk")
        matcher.run = lambda value: calls.append(len(value)) or run(value)
        pairs = pairs_as_inputs(dataset.test)
        report = plan.execute({"pairs": pairs})
        assert calls == [len(pairs)]
        assert len(report.outputs["save_3"]) == len(pairs)


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


class TestNameExtractionDeterminism:
    """The per-phrase tagger lives in a closure's ``tagger_holder``, where
    the simulator swaps in an online learner after compilation; the module
    walker has to see it there or two threads refit the learner at once."""

    @pytest.fixture(scope="class")
    def documents(self):
        return generate_name_dataset(seed=3, n_documents=120).documents

    @pytest.mark.parametrize("simulate", [False, True], ids=["plain", "simulate"])
    def test_byte_identical_across_worker_counts(self, documents, simulate):
        reports = [
            run_name_extraction(
                LinguaManga(), documents, simulate_tagging=simulate, workers=workers
            ).report.canonical_json()
            for workers in WORKER_COUNTS
        ]
        assert_reports_identical(*reports)

    def test_a_held_router_is_walked(self):
        pipeline = get_template("name_extraction").instantiate(simulate_tagging=True)
        stage = LinguaManga().compile(pipeline).module("tag_names_5").inner
        router = stage.tagger_holder["tagger"]
        assert isinstance(router, DistillationRouter)
        assert not tree_parallel_safe(stage)
        assert stage.config_identity()["tagger"] == router.config_identity()


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
