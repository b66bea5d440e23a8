"""Tests for the code-generation engine and knowledge base."""

from __future__ import annotations

import pytest

from repro.llm import codegen
from repro.llm.knowledge import KnowledgeBase


class TestRouting:
    @pytest.mark.parametrize(
        ("description", "task"),
        [
            ("impute the missing manufacturer of products", "impute_manufacturer"),
            ("extract noun phrases from text", "noun_phrases"),
            ("tokenize a sentence into words", "tokenize"),
        ],
    )
    def test_routes(self, description: str, task: str):
        assert codegen.route_task(description) == task

    def test_unknown_task_returns_none(self):
        assert codegen.route_task("paint a watercolor") is None


def max_revision(task: str) -> int:
    """Highest revision index the library holds for ``task``."""
    return len(codegen._LIBRARY[task]) - 1


class TestCandidates:
    def test_revisions_ascend(self):
        for task in codegen.KNOWN_TASKS:
            for revision in range(max_revision(task) + 1):
                candidate = codegen.candidate_for(task, revision)
                assert candidate.revision == revision
                assert "def run(" in candidate.source

    def test_revision_clamped_to_best(self):
        best = max_revision("tokenize")
        assert codegen.candidate_for("tokenize", 99).revision == best

    def test_negative_revision_clamped_to_zero(self):
        assert codegen.candidate_for("tokenize", -3).revision == 0

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            codegen.candidate_for("nope", 0)

    def test_suggestions_exist_for_non_final_revisions(self):
        for task in codegen.KNOWN_TASKS:
            for revision in range(max_revision(task)):
                assert len(codegen.suggestion_for(task, revision)) > 10


class TestKnowledgeBase:
    def test_manufacturer_deterministic(self):
        kb = KnowledgeBase()
        a = kb.manufacturer_for("PlayStation 2 Memory Card")
        b = kb.manufacturer_for("PlayStation 2 Memory Card")
        assert a == b

    def test_line_keyed_gaps_are_phrasing_invariant(self):
        kb = KnowledgeBase()
        a, _ = kb.manufacturer_for("PlayStation 2 Memory Card")
        b, _ = kb.manufacturer_for("Memory Card for PlayStation 2 consoles")
        assert a == b

    def test_unknown_product_gives_none(self):
        kb = KnowledgeBase()
        brand, confidence = kb.manufacturer_for("Mystery Gadget 9000")
        assert brand is None and confidence == 0.0

    def test_gap_rate_close_to_configured(self):
        from repro.datasets.catalog import BRANDS

        kb = KnowledgeBase()
        lines = [line for brand in BRANDS for line in brand.lines]
        unknowns = sum(
            1 for line in lines if kb.manufacturer_for(f"{line} Widget")[0] is None
        )
        assert 0.02 < unknowns / len(lines) < 0.08  # the gap rate is 0.045

    def test_name_judgement_accent_insensitive(self):
        kb = KnowledgeBase()
        with_accents, _ = kb.is_person_name("José García", language_hint="es")
        without, _ = kb.is_person_name("Jose Garcia", language_hint="es")
        assert with_accents is True and without is True

    def test_foreign_names_fail_without_hint(self):
        kb = KnowledgeBase()
        verdict, _ = kb.is_person_name("Wolfgang Schröder")
        assert verdict is False  # not in the English-only gazetteer

    def test_match_flip_rate_grows_with_hardness(self):
        kb = KnowledgeBase()
        easy = sum(kb.match_flip(f"k{i}", margin=0.5) for i in range(500))
        hard = sum(kb.match_flip(f"k{i}", margin=0.01) for i in range(500))
        assert hard > easy

    def test_extra_noise_increases_flips(self):
        kb = KnowledgeBase()
        base = sum(kb.match_flip(f"x{i}", 0.05, 0.0) for i in range(500))
        noisy = sum(kb.match_flip(f"x{i}", 0.05, 0.3) for i in range(500))
        assert noisy > base
