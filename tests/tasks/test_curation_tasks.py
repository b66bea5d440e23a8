"""Pipeline invariants of the corpus-curation workload family.

The locked invariants:

- **Dedup is idempotent** — deduplicating an already-deduplicated corpus
  flags nothing (every verified pair removed one endpoint, and candidate
  generation is a per-document property, so no surviving pair can flip).
- **Dedup is order-insensitive** — shuffling the input records changes
  neither the candidate pair set nor the flagged duplicate ids.
- **Batch ≡ stream** — ``run`` and ``run_stream`` produce identical
  predictions for every template, and streamed reports are byte-identical
  across worker counts 1/2/8, cold and warm.
- **Warm reruns are free** — a second run on the same system serves every
  verdict from the exact cache: zero provider calls.
- **The LLM pipelines earn their cost** — each template beats its fixed
  non-LLM baseline on F1 while calling the model for only the gray zone.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import pytest

from repro.core.compiler.curation import (
    DEDUP_BANDS,
    DEDUP_NUM_PERM,
    DEDUP_ROWS,
    DEDUP_SHINGLE_N,
    dedup_candidate_pairs,
)
from repro.core.runtime.system import LinguaManga
from repro.core.templates import get_template
from repro.datasets.curation import CurationCorpus
from repro.baselines.curation import (
    evaluate_hard_scan_decontamination,
    evaluate_rules_quality,
    evaluate_threshold_dedup,
    threshold_dedup_flags,
)
from repro.tasks.curation import (
    iter_dedup_candidate_ids,
    run_decontamination,
    run_dedup,
    run_quality_filter,
)

from repro.text.minhash import band_keys, minhash_params, minhash_signature
from repro.text.shingle import (
    document_digest,
    knowledge_canonical,
    shingle_ids,
    simple_canonical,
)

from ..conftest import assert_reports_identical

N_DOCS = 160


@pytest.fixture(scope="module")
def corpus() -> CurationCorpus:
    return CurationCorpus(n_docs=N_DOCS, seed=7)


@pytest.fixture(scope="module")
def dedup_result(corpus):
    return run_dedup(LinguaManga(), corpus)


@pytest.fixture(scope="module")
def quality_result(corpus):
    return run_quality_filter(LinguaManga(), corpus)


@pytest.fixture(scope="module")
def decontam_result(corpus):
    return run_decontamination(LinguaManga(), corpus)


class TestDedupInvariants:
    def test_beats_threshold_baseline(self, corpus, dedup_result):
        baseline = evaluate_threshold_dedup(corpus)
        assert dedup_result.f1 > baseline.f1

    def test_llm_sees_only_the_gray_zone(self, corpus, dedup_result):
        pairs = dedup_candidate_pairs([d.record() for d in corpus])
        assert 0 < dedup_result.llm_calls < len(pairs) / 2

    def test_idempotent(self, corpus, dedup_result):
        """Re-deduplicating the survivors flags nothing."""
        survivors = [
            doc.record()
            for doc, flagged in zip(corpus, dedup_result.predictions)
            if not flagged
        ]
        pipeline = get_template("document_dedup").instantiate(
            mode="docs", examples=corpus.dedup_examples(4)
        )
        report = LinguaManga().run(pipeline, {"documents": survivors})
        verdicts = next(iter(report.outputs.values()))
        assert not any(verdicts)

    def test_order_insensitive(self, corpus, dedup_result):
        records = [d.record() for d in corpus]
        shuffled = records[::-1]
        pipeline = get_template("document_dedup").instantiate(
            mode="docs", examples=corpus.dedup_examples(4)
        )
        report = LinguaManga().run(pipeline, {"documents": shuffled})
        verdicts = next(iter(report.outputs.values()))
        pairs = dedup_candidate_pairs(shuffled)
        flagged = {max(a, b) for (a, b), yes in zip(pairs, verdicts) if yes}
        original = {
            doc.doc_id
            for doc, hit in zip(corpus, dedup_result.predictions)
            if hit
        }
        assert flagged == original

    def test_stream_matches_batch(self, corpus, dedup_result):
        streamed = run_dedup(LinguaManga(), corpus, stream=True, workers=2)
        assert streamed.predictions == dedup_result.predictions

    def test_warm_rerun_serves_from_cache(self, corpus):
        system = LinguaManga()
        first = run_dedup(system, corpus)
        again = run_dedup(system, corpus)
        assert again.llm_calls == 0
        assert again.predictions == first.predictions

    def test_stream_reports_identical_across_workers(self, corpus, tmp_path):
        def streamed(workers: int, ledger):
            return run_dedup(
                LinguaManga(), corpus, stream=True, workers=workers,
                chunk_size=16, ledger_path=ledger,
            ).report

        cold = [streamed(w, tmp_path / f"w{w}.wal") for w in (1, 2, 8)]
        warm = [streamed(w, tmp_path / f"w{w}.wal") for w in (1, 2, 8)]
        assert_reports_identical(*cold, *warm)


class TestMemoryFlatCandidateScan:
    def test_scans_equal_scalar_reference(self, corpus):
        """Both scans against per-document scalar MinHash / band keys."""
        records = [d.record() for d in corpus]
        params = minhash_params(DEDUP_NUM_PERM)
        buckets: dict = defaultdict(set)
        for record in records:
            text = record["text"]
            buckets["x", document_digest(text)].add(record["id"])
            for tag, canonical in (("s", simple_canonical), ("k", knowledge_canonical)):
                signature = minhash_signature(
                    shingle_ids(canonical(text), DEDUP_SHINGLE_N), params
                )
                for key in band_keys(signature, DEDUP_BANDS, DEDUP_ROWS):
                    buckets[tag, key].add(record["id"])
        expected = sorted(
            {
                pair
                for bucket in buckets.values()
                for pair in itertools.combinations(sorted(bucket), 2)
            }
        )
        assert expected
        assert dedup_candidate_pairs(records) == expected
        assert list(iter_dedup_candidate_ids(corpus.inputs())) == expected

    def test_external_scan_equals_kernel(self, corpus):
        records = [d.record() for d in corpus]
        stats: dict = {}
        streamed = list(
            iter_dedup_candidate_ids(corpus.inputs(), partitions=8, stats=stats)
        )
        assert streamed == dedup_candidate_pairs(records)
        assert stats["docs"] == len(records)
        assert stats["spilled_bytes"] > 0

    def test_partitioning_bounds_resident_postings(self, corpus):
        stats: dict = {}
        list(iter_dedup_candidate_ids(corpus.inputs(), partitions=16, stats=stats))
        # The scan holds one partition at a time; with 16 partitions the
        # peak resident slice must be far below the full posting count.
        assert stats["peak_partition_postings"] <= stats["postings"] / 4

    def test_partition_count_does_not_change_pairs(self, corpus):
        one = list(iter_dedup_candidate_ids(corpus.inputs(), partitions=1))
        many = list(iter_dedup_candidate_ids(corpus.inputs(), partitions=32))
        assert one == many


class TestQualityFilter:
    def test_beats_rules_baseline(self, corpus, quality_result):
        baseline = evaluate_rules_quality(corpus)
        assert quality_result.f1 > baseline.f1

    def test_cascade_skips_confident_tails(self, corpus, quality_result):
        assert 0 < quality_result.llm_calls < len(corpus)

    def test_stream_matches_batch(self, corpus, quality_result):
        streamed = run_quality_filter(LinguaManga(), corpus, stream=True, workers=2)
        assert streamed.predictions == quality_result.predictions

    def test_distillation_takes_over_on_rerun(self, corpus):
        system = LinguaManga()
        first = run_quality_filter(system, corpus, distill=True)
        again = run_quality_filter(system, corpus, distill=True)
        assert again.predictions == first.predictions
        assert again.llm_calls == 0


class TestDecontamination:
    def test_beats_hard_scan_baseline(self, corpus, decontam_result):
        baseline = evaluate_hard_scan_decontamination(corpus)
        assert decontam_result.f1 > baseline.f1

    def test_scan_clears_most_documents_for_free(self, corpus, decontam_result):
        assert 0 < decontam_result.llm_calls < len(corpus) / 4

    def test_stream_matches_batch(self, corpus, decontam_result):
        streamed = run_decontamination(LinguaManga(), corpus, stream=True, workers=2)
        assert streamed.predictions == decontam_result.predictions

    def test_catches_disguised_splices(self, corpus, decontam_result):
        """The hard scan alone misses disguised splices; the cascade must not."""
        baseline = evaluate_hard_scan_decontamination(corpus)
        labels = [int(d.contaminated) for d in corpus]
        missed_by_scan = [
            i for i, (label, flag) in enumerate(zip(labels, baseline.predictions))
            if label and not flag
        ]
        assert missed_by_scan, "corpus should plant disguised splices"
        caught = sum(decontam_result.predictions[i] for i in missed_by_scan)
        assert caught > len(missed_by_scan) / 2

    def test_template_requires_eval_items(self):
        # The template guards with ValueError; the factory itself raises
        # CompileError (a ValueError subclass) when bypassed.
        with pytest.raises(ValueError):
            LinguaManga().run(
                get_template("decontamination").instantiate(eval_items=[]),
                {"documents": []},
            )


class TestBaselineFlags:
    def test_threshold_dedup_flags_shape(self, corpus):
        records = [d.record() for d in corpus]
        flags = threshold_dedup_flags(records)
        assert len(flags) == len(records)
        assert set(flags) <= {0, 1}
