"""Tests for the packaged demo tasks (paper sections 4.1-4.3) and their table."""

from __future__ import annotations

import pytest

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.curation import CurationCorpus
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset
from repro.datasets.names import generate_name_dataset
from repro.llm.cache import PROVENANCE_DISTILLED
from repro.tasks.curation import run_decontamination, run_dedup, run_quality_filter
from repro.tasks.entity_resolution import pick_examples, run_lingua_manga_er
from repro.tasks.imputation import run_hybrid_imputation, run_llm_imputation
from repro.tasks.name_extraction import run_name_extraction, score_extractions
from repro.tasks.table import TASKS, run


class TestPickExamples:
    def test_balanced_selection(self):
        ds = generate_er_dataset("beer", n_entities=200)
        examples = pick_examples(ds.train, 4)
        labels = [label for _, label in examples]
        assert labels.count(True) == 2 and labels.count(False) == 2

    def test_k_larger_than_available(self):
        ds = generate_er_dataset("beer", n_entities=200)
        few = [p for p in ds.train[:3]]
        examples = pick_examples(few, 10)
        assert len(examples) <= 10


class TestEntityResolutionTask:
    def test_end_to_end_f1(self, system):
        ds = generate_er_dataset("beer", n_entities=250)
        result = run_lingua_manga_er(system, ds)
        assert result.f1 > 0.6
        assert result.llm_calls == len(ds.test)
        assert result.cost > 0

    def test_few_shot_label_efficiency(self, system):
        """The paper's claim: a handful of examples rivals supervised training."""
        ds = generate_er_dataset("restaurants", n_entities=300)
        result = run_lingua_manga_er(system, ds, n_examples=4)
        assert result.f1 > 0.85


class TestImputationTask:
    @pytest.fixture(scope="class")
    def results(self):
        system = LinguaManga()
        buy = generate_buy_dataset(n_test=180)
        pure = run_llm_imputation(system, buy.test)
        hybrid = run_hybrid_imputation(system, buy.test)
        return pure, hybrid

    def test_both_methods_accurate(self, results):
        pure, hybrid = results
        assert pure.accuracy > 0.85
        assert hybrid.accuracy > 0.85

    def test_hybrid_uses_far_fewer_llm_calls(self, results):
        pure, hybrid = results
        # Paper: "only 1/6 LLM calls".  Allow a band around it.
        ratio = hybrid.llm_calls / pure.llm_calls
        assert ratio < 0.35

    def test_hybrid_cost_lower(self, results):
        pure, hybrid = results
        assert hybrid.cost < pure.cost


class TestNameExtractionTask:
    def test_score_extractions_exact(self):
        from repro.datasets.names import NameDocument

        docs = [NameDocument("x", ("A B",), "en"), NameDocument("y", ("C D",), "en")]
        precision, recall, f1 = score_extractions(docs, [["A B"], ["C D", "E F"]])
        assert recall == 1.0
        assert precision == pytest.approx(2 / 3)
        assert 0 < f1 < 1

    def test_score_alignment_required(self):
        with pytest.raises(ValueError):
            score_extractions([], [["x"]])

    def test_multilingual_beats_monolingual(self, system):
        documents = generate_name_dataset(n_documents=70).documents
        mono = run_name_extraction(system, documents, multilingual=False)
        multi = run_name_extraction(system, documents, multilingual=True)
        assert multi.f1 > mono.f1 + 0.1

    def test_monolingual_fine_on_english(self, system):
        documents = [
            doc
            for doc in generate_name_dataset(n_documents=100).documents
            if doc.language == "en"
        ]
        mono = run_name_extraction(system, documents, multilingual=False)
        assert mono.f1 > 0.8

    def test_simulator_reduces_calls_on_second_pass(self):
        system = LinguaManga()
        documents = generate_name_dataset(n_documents=120).documents
        plain = run_name_extraction(system, documents, multilingual=True)
        simulated = run_name_extraction(
            system, documents, multilingual=True, simulate_tagging=True
        )
        # The caching layer already absorbs repeats; the simulator must cut
        # provider traffic further on top of that.
        assert simulated.llm_calls <= plain.llm_calls

    def test_simulator_answers_are_ledgered_distilled(self):
        documents = generate_name_dataset(n_documents=120).documents
        plain = run_name_extraction(LinguaManga(), documents, multilingual=True)
        system = LinguaManga()
        pipeline = get_template("name_extraction").instantiate(
            multilingual=True, simulate_tagging=True
        )
        plan = system.compile(pipeline)
        report = plan.execute({"documents": [{"text": d.text} for d in documents]})
        tag = next(op.name for op in pipeline.operators if op.kind == "tag_names")
        stats = plan.module(tag).inner.tagger_holder["tagger"].distill_stats
        assert stats.student_calls > 0
        distilled = [
            r for r in system.service.records if r.provenance == PROVENANCE_DISTILLED
        ]
        assert all(r.cost == 0.0 for r in distilled)
        assert (
            report.cost.distilled_calls
            == len(distilled)
            == stats.student_calls + stats.degraded_answers
        )
        assert system.usage().served_calls <= plain.llm_calls

    def test_per_language_breakdown_present(self, system):
        documents = generate_name_dataset(n_documents=50).documents
        result = run_name_extraction(system, documents, multilingual=True)
        assert set(result.per_language_f1) == {d.language for d in documents}


class TestTaskTable:
    """One ``run`` behind every runner: options, keywords and results."""

    @pytest.fixture(scope="class")
    def records(self):
        return generate_buy_dataset(seed=11, n_train=4, n_test=6).test

    def test_every_runner_is_run_bound_to_its_row(self):
        runners = {
            run_lingua_manga_er: "er",
            run_name_extraction: "names",
            run_llm_imputation: "imputation",
            run_hybrid_imputation: "imputation_hybrid",
            run_dedup: "dedup",
            run_quality_filter: "quality_filter",
            run_decontamination: "decontamination",
        }
        for runner, name in runners.items():
            assert runner.func is run and runner.args == (name,)
        assert set(runners.values()) | {"dsl"} == set(TASKS)

    def test_unknown_or_mistyped_options_are_refused(self, records):
        with pytest.raises(ValueError, match="no option 'variant'"):
            run_llm_imputation(LinguaManga(), records, variant="pure")
        with pytest.raises(ValueError, match="must be int"):
            run_dedup(LinguaManga(), CurationCorpus(n_docs=8), n_examples="4")

    def test_execution_keywords_match_the_engine(self, records):
        """A row runs on the batch engine only: the stream's keywords are
        not execution keywords, and a run cannot be cancelled, so they are
        refused as unknown row options."""
        corpus = CurationCorpus(n_docs=8)
        with pytest.raises(ValueError, match="no option 'stream'"):
            run_llm_imputation(LinguaManga(), records, stream=True)
        with pytest.raises(ValueError, match="no option 'ledger_path'"):
            run_dedup(LinguaManga(), corpus, ledger_path="ledger.jsonl")
        with pytest.raises(ValueError, match="no option 'stream'"):
            run_dedup(LinguaManga(), corpus, stream=True)
        with pytest.raises(ValueError, match="no option 'cancel'"):
            run_quality_filter(LinguaManga(), corpus, cancel=None)

    def test_scores_read_as_attributes(self, records):
        result = run_llm_imputation(LinguaManga(), records)
        assert result.task == "imputation" and result.corpus == ""
        assert result.accuracy == result.scores["accuracy"]
        assert not hasattr(result, "f1")  # imputation is scored by accuracy alone
