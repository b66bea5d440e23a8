"""Unit tests for the classifier-cascade module and the text scan helpers.

The cascade is the cost story of the curation templates, so its routing
contract is pinned at the unit level: rule-confident items never reach
the teacher, the uncertainty band always does, prefetch warms exactly
the escalating subset, and the thresholds + rule tag are part of the
module's config identity (checkpoint resume must notice a rule change).
"""

from __future__ import annotations

import pytest

from repro.core.modules.base import Module
from repro.core.modules.cascade import CascadeModule
from repro.text.overlap import build_ngram_index, ngram_set, overlap_profile
from repro.text.quality import quality_stats, rule_quality_score


class RecordingTeacher(Module):
    """Stub teacher that records what reaches it and answers a constant."""

    def __init__(self, verdict=True):
        super().__init__("teacher")
        self.verdict = verdict
        self.seen: list = []
        self.prefetched: list = []

    def _run(self, value):
        self.seen.append(value)
        return self.verdict

    def prefetch(self, values):
        self.prefetched.extend(values)
        return len(values)


def scored_cascade(lower=0.3, upper=0.7, **kwargs):
    teacher = RecordingTeacher()
    module = CascadeModule(
        "cascade", rule=lambda item: item["score"], teacher=teacher,
        lower=lower, upper=upper, **kwargs,
    )
    return module, teacher


class TestRouting:
    def test_low_scores_answer_false_without_teacher(self):
        module, teacher = scored_cascade()
        assert module.run({"score": 0.1}) is False
        assert teacher.seen == []
        assert module.rule_decisions == 1
        assert module.escalations == 0

    def test_high_scores_answer_true_without_teacher(self):
        module, teacher = scored_cascade()
        assert module.run({"score": 0.9}) is True
        assert teacher.seen == []

    def test_band_escalates_to_teacher(self):
        module, teacher = scored_cascade()
        assert module.run({"score": 0.5}) is True
        assert len(teacher.seen) == 1
        assert module.escalations == 1

    def test_band_edges(self):
        # lower is inclusive (escalates), upper is exclusive (rule True).
        module, teacher = scored_cascade()
        module.run({"score": 0.3})
        assert len(teacher.seen) == 1
        module.run({"score": 0.7})
        assert len(teacher.seen) == 1

    def test_out_key_enriches_a_copy(self):
        module, _ = scored_cascade(out_key="keep")
        item = {"score": 0.9, "id": "d1"}
        out = module.run(item)
        assert out == {"score": 0.9, "id": "d1", "keep": True}
        assert "keep" not in item

    def test_prefetch_warms_only_escalating_items(self):
        module, teacher = scored_cascade()
        items = [{"score": s} for s in (0.1, 0.4, 0.6, 0.95)]
        warmed = module.prefetch(items)
        assert warmed == 2
        assert teacher.prefetched == [{"score": 0.4}, {"score": 0.6}]

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            CascadeModule(
                "bad", rule=lambda _: 0.5, teacher=RecordingTeacher(),
                lower=0.8, upper=0.2,
            )


class TestIdentity:
    def test_thresholds_and_tag_in_config_identity(self):
        module, _ = scored_cascade(rule_tag="rules-v2")
        identity = module.config_identity()["cascade"]
        assert identity["lower"] == 0.3
        assert identity["upper"] == 0.7
        assert identity["rule_tag"] == "rules-v2"

    def test_identity_changes_with_band(self):
        a, _ = scored_cascade(lower=0.3, upper=0.7)
        b, _ = scored_cascade(lower=0.2, upper=0.7)
        assert a.config_identity() != b.config_identity()


class TestOverlapScan:
    def test_ngram_set_short_text(self):
        assert ngram_set("alpha beta", 4) == {("alpha", "beta")}
        assert ngram_set("", 4) == set()

    @pytest.mark.parametrize("width", [0, -1, -3])
    def test_widths_below_one_are_refused(self, width):
        # Width 0 made every text share the empty gram: an unrelated document
        # scored a verbatim (hard) hit against any eval set.
        index = build_ngram_index(["totally unrelated words here"], 2)
        with pytest.raises(ValueError, match="at least 1"):
            ngram_set("totally unrelated text", width)
        with pytest.raises(ValueError, match="at least 1"):
            build_ngram_index(["a b c"], width)
        with pytest.raises(ValueError, match="at least 1"):
            overlap_profile("totally unrelated text", index, index, hard_n=width, soft_n=2)

    def test_index_prefers_lowest_item_on_collision(self):
        index = build_ngram_index(["shared gram here", "shared gram here too"], 3)
        assert index[("shared", "gram", "here")] == 0

    def test_profile_attributes_best_item(self):
        items = ["the quick brown fox jumps high", "a completely different line"]
        hard = build_ngram_index(items, 6)
        soft = build_ngram_index(items, 3)
        profile = overlap_profile(
            "the quick brown fox jumps high today", hard, soft,
            hard_n=6, soft_n=3,
        )
        assert profile.hard_hits > 0
        assert profile.best_item == 0
        assert 0 < profile.hard_fraction <= 1.0

    def test_clean_document_has_empty_profile(self):
        items = ["the quick brown fox jumps high"]
        hard = build_ngram_index(items, 6)
        soft = build_ngram_index(items, 3)
        profile = overlap_profile(
            "entirely unrelated prose about gardens", hard, soft,
            hard_n=6, soft_n=3,
        )
        assert profile.hard_hits == 0
        assert profile.soft_hits == 0
        assert profile.best_item == -1


class TestQualityRules:
    def test_clean_prose_scores_high(self):
        clean = (
            "The brewery opened in nineteen sixty. Visitors praise the "
            "tasting room. Tours run on weekends through the summer."
        )
        assert rule_quality_score(clean) > 0.8

    def test_repeated_spam_scores_lower(self):
        spam = "buy now limited offer. " * 12
        assert rule_quality_score(spam) < rule_quality_score(
            "The brewery opened in nineteen sixty. Visitors praise the room."
        )

    def test_stats_fields_are_consistent(self):
        stats = quality_stats("One sentence here. Another follows it.")
        assert stats.n_sentences == 2
        assert stats.n_tokens > 0
        assert 0.0 <= stats.distinct_word_ratio <= 1.0

    def test_empty_text(self):
        assert rule_quality_score("") <= 0.5
