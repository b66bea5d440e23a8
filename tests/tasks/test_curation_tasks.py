"""Pipeline invariants of the corpus-curation workload family.

The locked invariants:

- **Dedup is idempotent** — deduplicating an already-deduplicated corpus
  flags nothing (every verified pair removed one endpoint, and candidate
  generation is a per-document property, so no surviving pair can flip).
- **Dedup is order-insensitive** — shuffling the input records changes
  neither the candidate pair set nor the flagged duplicate ids.
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
from repro.core.compiler.registry import CompileError
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
    run_decontamination,
    run_dedup,
    run_quality_filter,
)

from repro.text.minhash import minhash_params
from repro.text.shingle import knowledge_canonical, shingle_ids, simple_canonical

from ..oracles import band_keys, document_digest, minhash_signature

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
            examples=corpus.dedup_examples(4)
        )
        report = LinguaManga().run(pipeline, {"documents": survivors})
        verdicts = next(iter(report.outputs.values()))
        assert not any(verdicts)

    def test_order_insensitive(self, corpus, dedup_result):
        records = [d.record() for d in corpus]
        shuffled = records[::-1]
        pipeline = get_template("document_dedup").instantiate(
            examples=corpus.dedup_examples(4)
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

    def test_warm_rerun_serves_from_cache(self, corpus):
        system = LinguaManga()
        first = run_dedup(system, corpus)
        again = run_dedup(system, corpus)
        assert again.llm_calls == 0
        assert again.predictions == first.predictions

    def test_shingle_width_below_one_does_not_compile(self):
        pipeline = get_template("document_dedup").instantiate(shingle_n=0)
        with pytest.raises(CompileError, match="at least 1"):
            LinguaManga().run(pipeline, {"documents": [{"id": 0, "text": "a b"}]})


class TestMemoryFlatCandidateScan:
    def test_scans_equal_scalar_reference(self, corpus):
        """The kernel against per-document scalar MinHash / band keys."""
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


class TestQualityFilter:
    def test_beats_rules_baseline(self, corpus, quality_result):
        baseline = evaluate_rules_quality(corpus)
        assert quality_result.f1 > baseline.f1

    def test_cascade_skips_confident_tails(self, corpus, quality_result):
        assert 0 < quality_result.llm_calls < len(corpus)

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
