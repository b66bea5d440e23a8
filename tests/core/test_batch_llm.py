"""Tests for batched LLM prompting (module + skill)."""

from __future__ import annotations

import pytest

from repro.core.compiler.registry import make_pair_matcher, render_pair
from repro.core.modules.base import ModuleExecutionError
from repro.core.modules.batch_llm import BatchLLMModule
from repro.core.modules.llm_module import parse_yes_no
from repro.llm.knowledge import KnowledgeBase
from repro.llm.skills.batch_matching import BatchEntityMatchingSkill

MATCH_PAIR = (
    {"name": "Stone IPA", "brewery": "Stone Brewing"},
    {"name": "Stone IPA", "brewery": "Stone Brewing Co."},
)
DIFFERENT_PAIR = (
    {"name": "Alpha Centauri Lager", "brewery": "Alpha"},
    {"name": "Zeta Reticuli Stout", "brewery": "Zeta"},
)


def make_batch_module(context, batch_size=10, fallback=True):
    single = make_pair_matcher("single", context, examples=[(MATCH_PAIR, True)])
    return BatchLLMModule(
        name="batch",
        service=context.service,
        task_description=(
            "Entity resolution: determine for each pair whether the two "
            "records refer to the same entity. Answer Yes or No per pair."
        ),
        render_item=render_pair,
        parse_answer=parse_yes_no,
        batch_size=batch_size,
        examples=[(render_pair(MATCH_PAIR).replace("\n", "  "), "Yes")],
        fallback=single if fallback else None,
    )


class TestBatchSkill:
    def test_answers_every_pair(self):
        kb = KnowledgeBase()
        prompt = (
            "Task: are these the same entity? Answer Yes or No per pair.\n"
            f"Pair 1:\n{render_pair(MATCH_PAIR)}\n"
            f"Pair 2:\n{render_pair(DIFFERENT_PAIR)}\n"
        )
        answer = BatchEntityMatchingSkill().respond(prompt, kb)
        lines = answer.splitlines()
        assert lines[0].startswith("1:") and lines[1].startswith("2:")

    def test_matches_only_batched_prompts(self):
        skill = BatchEntityMatchingSkill()
        assert not skill.matches("Record A: {} Record B: {} same entity?")
        assert skill.matches(
            "same entity per pair\nPair 1:\nRecord A: {}\nRecord B: {}"
        )

    def test_missing_record_flagged_not_crash(self):
        kb = KnowledgeBase()
        prompt = "same entity?\nPair 1:\nRecord A: {\"a\": 1}\nno second record"
        answer = BatchEntityMatchingSkill().respond(prompt, kb)
        assert "Unknown" in answer


class TestBatchModule:
    def test_batch_results_match_single_results(self, context):
        pairs = [MATCH_PAIR, DIFFERENT_PAIR, MATCH_PAIR]
        batch = make_batch_module(context)
        single = make_pair_matcher("s", context, examples=[(MATCH_PAIR, True)])
        assert batch.run(list(pairs)) == [single.run(p) for p in pairs]

    def test_fewer_calls_than_items(self, context):
        pairs = [MATCH_PAIR, DIFFERENT_PAIR] * 5
        module = make_batch_module(context, batch_size=10)
        module.run(list(pairs))
        assert context.service.usage().served_calls == 1

    def test_multiple_batches(self, context):
        # Distinct pairs so the service cache cannot merge identical batches.
        pairs = [
            ({"name": f"beer {i}"}, {"name": f"beer {i} deluxe"}) for i in range(7)
        ]
        module = make_batch_module(context, batch_size=3)
        results = module.run(list(pairs))
        assert len(results) == 7
        assert context.service.usage().served_calls == 3

    def test_rejects_non_list(self, context):
        module = make_batch_module(context)
        with pytest.raises(ModuleExecutionError):
            module.run("not a list")

    def test_batch_size_validation(self, context):
        with pytest.raises(ValueError):
            make_batch_module(context, batch_size=0)

    def test_fallback_used_for_unanswered_items(self, context):
        module = make_batch_module(context, batch_size=2)
        # A value render_pair cannot interpret would break the whole batch
        # response; instead feed a valid pair but sabotage parsing by making
        # the parse function fail once.
        calls = {"n": 0}

        def flaky_parse(answer: str):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("malformed")
            return parse_yes_no(answer)

        module.parse_answer = flaky_parse
        results = module.run([MATCH_PAIR, DIFFERENT_PAIR])
        assert len(results) == 2
        assert module.fallback_items == 1

    def test_no_fallback_raises_on_unparseable(self, context):
        module = make_batch_module(context, fallback=False)
        module.parse_answer = lambda answer: (_ for _ in ()).throw(ValueError("bad"))
        with pytest.raises(ModuleExecutionError):
            module.run([MATCH_PAIR])

    def test_prompt_contains_numbered_sections(self, context):
        module = make_batch_module(context)
        prompt = module.build_prompt([MATCH_PAIR, DIFFERENT_PAIR])
        assert "Pair 1:" in prompt and "Pair 2:" in prompt
        assert "Example 1:" in prompt


class TestBatchStrategy:
    def test_compiles_and_runs_via_pipeline(self, system):
        from repro.core.dsl.builder import PipelineBuilder

        pipeline = (
            PipelineBuilder("p")
            .load(source="pairs")
            .match_entities(
                impl="llm_batch",
                batch_size=5,
                examples=[(MATCH_PAIR, True)],
            )
            .save(key="v")
            .build()
        )
        pairs = [
            {"left": MATCH_PAIR[0], "right": MATCH_PAIR[1]},
            {"left": DIFFERENT_PAIR[0], "right": DIFFERENT_PAIR[1]},
        ]
        report = system.run(pipeline, {"pairs": pairs})
        assert next(iter(report.outputs.values())) == [True, False]
        assert system.usage().served_calls == 1
