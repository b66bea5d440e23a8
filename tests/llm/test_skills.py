"""Tests for the simulated LLM's skills and prompt routing."""

from __future__ import annotations

import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.knowledge import KnowledgeBase
from repro.llm.providers import LLMRequest, SimulatedProvider
from repro.llm.skills import default_skills
from repro.llm.skills import codegen_skill
from repro.llm.skills.base import count_examples, extract_json_field, extract_text_field
from repro.llm.skills.entity_matching import EntityMatchingSkill, match_score


@pytest.fixture()
def kb() -> KnowledgeBase:
    return KnowledgeBase()


class TestPromptParsing:
    def test_extract_json_field(self):
        prompt = 'Record A: {"name": "x", "n": 1}\nmore text'
        assert extract_json_field(prompt, "Record A") == {"name": "x", "n": 1}

    def test_extract_json_takes_last_occurrence(self):
        prompt = 'Record A: {"name": "example"}\nRecord A: {"name": "payload"}'
        assert extract_json_field(prompt, "Record A") == {"name": "payload"}

    def test_extract_json_nested_braces(self):
        prompt = 'Data: {"outer": {"inner": 2}}'
        assert extract_json_field(prompt, "Data") == {"outer": {"inner": 2}}

    def test_extract_json_missing(self):
        assert extract_json_field("no json here", "Record A") is None

    def test_extract_json_string_with_brace(self):
        prompt = 'Data: {"text": "a } inside"}'
        assert extract_json_field(prompt, "Data") == {"text": "a } inside"}

    def test_extract_text_field(self):
        assert extract_text_field("Phrase: John Smith\n", "Phrase") == "John Smith"

    def test_extract_text_takes_last(self):
        prompt = "Phrase: example\nPhrase: payload"
        assert extract_text_field(prompt, "Phrase") == "payload"

    def test_count_examples(self):
        prompt = "Task: t\nExample 1:\nInput: a\nExample 2:\nInput: b\nInput: c"
        assert count_examples(prompt) == 2

    def test_extract_json_multi_line_object_and_escaped_quote(self):
        prompt = 'record a :\n  {"name": "7\\" {vinyl}",\n   "n": [1, {"m": 2}]}\nOutput:'
        assert extract_json_field(prompt, "Record A") == {
            "name": '7" {vinyl}',
            "n": [1, {"m": 2}],
        }

    def test_extract_json_malformed_last_object_is_none(self):
        # The last labelled object is the payload; a broken one is not
        # papered over with a worked example's.
        prompt = 'Record A: {"name": "example"}\nRecord A: {"name": }'
        assert extract_json_field(prompt, "Record A") is None
        assert extract_json_field('Record A: {"open": 1', "Record A") is None

    def test_a_later_label_without_a_value_is_stepped_over(self):
        prompt = 'Record A: {"name": "payload"}\nCompare Record A: to Record B.\nInput: x\nInput:'
        assert extract_json_field(prompt, "Record A") == {"name": "payload"}
        assert extract_text_field(prompt, "Input") == "x"

    def test_the_right_most_label_wins_inside_an_earlier_value(self):
        assert extract_text_field("Input: see Input: x", "Input") == "x"

    def test_field_parsers_equal_the_scan_everything_form(self):
        """From-the-right parsing ≡ ``list(finditer)[-1]`` + brace counting."""
        rng = random.Random(19)
        lines = [
            'Record A: {"name": "x", "n": 1}',
            'record a : {"outer": {"inner": "a } \\" { b"}}',
            'RECORD A:{"name": "y"} trailing',
            'Record A: {"broken": ',
            'Record A: {"bad": }',
            "Record A: see below",
            'Record A:\n  {"multi":\n    "line"}',
            "Example 1:",
            "Input: some value  ",
            "input :\tother value",
            "INPUT: {not json}",
            "Output: Yes",
            "",
            "   ",
            '{"stray": "object"}',
        ]
        for _ in range(1500):
            prompt = "\n".join(rng.choice(lines) for _ in range(rng.randint(0, 7)))
            assert extract_json_field(prompt, "Record A") == _json_field_reference(
                prompt, "Record A"
            ), prompt
            assert extract_text_field(prompt, "Input") == _text_field_reference(
                prompt, "Input"
            ), prompt


def _json_field_reference(prompt: str, label: str):
    matches = list(re.finditer(re.escape(label) + r"\s*:\s*\{", prompt, re.IGNORECASE))
    if not matches:
        return None
    start = matches[-1].end() - 1
    depth, in_string, escaped = 0, False, False
    for i in range(start, len(prompt)):
        ch = prompt[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                try:
                    return json.loads(prompt[start : i + 1])
                except json.JSONDecodeError:
                    return None
    return None


def _text_field_reference(prompt: str, label: str):
    matches = list(
        re.finditer(
            re.escape(label) + r"\s*:\s*(.+?)\s*$", prompt, re.IGNORECASE | re.MULTILINE
        )
    )
    return matches[-1].group(1).strip() if matches else None


class TestRouting:
    def prompt_for(self, text: str) -> str:
        provider = SimulatedProvider()
        return provider.complete(LLMRequest(prompt=text)).skill

    def test_entity_matching_routed(self):
        prompt = (
            "Determine if the following entities are equivalent.\n"
            'Record A: {"name": "a"}\nRecord B: {"name": "b"}'
        )
        assert self.prompt_for(prompt) == "entity_matching"

    def test_imputation_routed(self):
        assert self.prompt_for('Who makes this? manufacturer\nProduct: {"name": "Walkman"}') == "imputation"

    def test_tagging_routed(self):
        assert self.prompt_for("Is this a person name?\nPhrase: John Smith") == "tagging"

    def test_codegen_routed(self):
        assert self.prompt_for("Please write a python code for this.\nTask: tokenize text") == "codegen"

    def test_nl2sql_routed(self):
        assert self.prompt_for(
            "Write SQL for this schema. Schema: TABLE t (a INT)\nQuestion: how many rows?"
        ) == "nl2sql"

    def test_fallback_always_answers(self):
        assert self.prompt_for("completely unrelated request") == "chat"


#: Each code skill beside the trigger it may skip running.
_CODE_SKILLS = [
    (codegen_skill.CodeGenerationSkill(), codegen_skill._GENERATE_TRIGGER),
    (codegen_skill.CodeSuggestionSkill(), codegen_skill._SUGGEST_TRIGGER),
]

#: The triggers' words in mixed case, with and without the four letters
#: ``IGNORECASE`` matches beyond ASCII (``İ ı K ſ``).
_TRIGGER_WORDS = [
    "write", "WRİTE", "wrıte", "a", "the", "THE", "python", "Python",
    "code", "CODE", "Code", "cod", "function", "FUNCTION", "FUNCTİON",
    "functıon", "Function", "generate", "GENERATE", "implement", "ımplement",
    "why", "does", "doeſ", "DOES", "this", "THIS", "thıſ", "fail", "FAİL",
    "critique", "crıtıque", "read", "and", "K", "ſ", "İ", "ı",
]


def _assert_code_skills_equal_their_triggers(prompt: str) -> None:
    for skill, trigger in _CODE_SKILLS:
        assert skill.matches(prompt) == bool(trigger.search(prompt)), (
            skill.name,
            prompt,
        )


class TestCodeSkillTriggers:
    """The look before a code trigger runs never changes what it decides."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.sampled_from(_TRIGGER_WORDS) | st.text(max_size=6), max_size=12
        ),
        st.sampled_from([" ", " ", "", "\n"]),
    )
    def test_matches_equals_the_bare_search(self, words, separator):
        _assert_code_skills_equal_their_triggers(separator.join(words))

    def test_every_documented_trigger_phrase_still_matches(self):
        for phrase in (
            "Write a Python function that splits names",
            "WRITE THE CODE",
            "please generate code for it",
            "Implement A Function",
            "wrİte functİon",
        ):
            assert codegen_skill.CodeGenerationSkill().matches(phrase), phrase
        for phrase in (
            "Why does this code fail?",
            "CRITIQUE THIS CODE",
            "Read the code and the failures",
            "why doeſ the code faİl",
        ):
            assert codegen_skill.CodeSuggestionSkill().matches(phrase), phrase

    def test_the_needles_have_no_case_partner_beyond_ascii(self):
        """``str.lower`` sees every character the regex takes for these letters."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        for letter in "codeunt":
            taken = set(re.findall(letter, every, re.IGNORECASE))
            assert taken == {letter, letter.upper()}, (letter, taken)

    def test_matches_equals_the_bare_search_on_task_prompts(self):
        """Every prompt the ER, names, imputation and curation runs send."""
        from repro.core.runtime.system import LinguaManga
        from repro.datasets import generate_er_dataset
        from repro.datasets.curation import CurationCorpus
        from repro.datasets.imputation import generate_buy_dataset
        from repro.datasets.names import generate_name_dataset
        from repro.llm.service import LLMService
        from repro.tasks.curation import (
            run_decontamination,
            run_dedup,
            run_quality_filter,
        )
        from repro.tasks.entity_resolution import run_lingua_manga_er
        from repro.tasks.imputation import run_llm_imputation
        from repro.tasks.name_extraction import run_name_extraction

        prompts: list[str] = []

        class Recording(SimulatedProvider):
            def complete(self, request: LLMRequest):
                prompts.append(request.prompt)
                return super().complete(request)

        system = LinguaManga(service=LLMService(Recording()))
        run_lingua_manga_er(system, generate_er_dataset("beer"))
        run_name_extraction(system, generate_name_dataset(n_documents=30).documents)
        run_llm_imputation(system, generate_buy_dataset(n_train=50, n_test=30).test)
        corpus = CurationCorpus(60)
        run_dedup(system, corpus)
        run_quality_filter(system, corpus)
        run_decontamination(system, corpus)
        assert len(prompts) > 300
        skills = {
            next(s.name for s in default_skills() if s.matches(p)) for p in prompts
        }
        assert {"codegen", "suggest", "entity_matching", "tagging", "imputation"} <= skills
        for prompt in prompts:
            _assert_code_skills_equal_their_triggers(prompt)


class TestEntityMatchingSkill:
    def test_clear_match_answers_yes(self, kb: KnowledgeBase):
        skill = EntityMatchingSkill()
        prompt = (
            "Task: Entity resolution: determine if the records refer to the same entity.\n"
            "Example 1:\nPair: ...\nOutput: Yes\n"
            'Record A: {"name": "Stone IPA", "brewery": "Stone Brewing"}\n'
            'Record B: {"name": "Stone IPA", "brewery": "Stone Brewing"}'
        )
        assert skill.respond(prompt, kb).startswith("Yes")

    def test_clear_nonmatch_answers_no(self, kb: KnowledgeBase):
        skill = EntityMatchingSkill()
        prompt = (
            "Task: Entity resolution task with a long description of what to do "
            "when comparing records for equivalence judgement purposes.\n"
            "Example 1:\nPair: ...\nOutput: No\n"
            'Record A: {"name": "Alpha Centauri Lager"}\n'
            'Record B: {"name": "Zeta Reticuli Stout"}'
        )
        assert skill.respond(prompt, kb).startswith("No")

    def test_missing_record_asks_for_it(self, kb: KnowledgeBase):
        skill = EntityMatchingSkill()
        response = skill.respond("Are these the same entity? Record A: not-json", kb)
        assert "Record" in response

    def test_match_score_identity(self):
        record = {"name": "Stone IPA", "abv": 6.9}
        assert match_score(record, record) == pytest.approx(1.0)

    def test_match_score_symmetric(self):
        a = {"name": "Stone IPA"}
        b = {"name": "Stone India Pale Ale"}
        assert match_score(a, b) == pytest.approx(match_score(b, a))

    def test_match_score_ignores_ids(self):
        a = {"name": "x", "id": 1}
        b = {"name": "x", "id": 999}
        assert match_score(a, b) == pytest.approx(1.0)

    def test_suffix_tolerance(self):
        a = {"song": "Midnight Dreams"}
        b = {"song": "Midnight Dreams (Album Version)"}
        assert match_score(a, b) > 0.9

    def test_distinctive_token_mismatch_sinks_score(self):
        a = {"beer_name": "Wild Bastard IPA"}
        b = {"beer_name": "Wild Otter IPA"}
        assert match_score(a, b) < 0.71


class TestImputationSkill:
    def test_known_product_line(self):
        provider = SimulatedProvider()
        response = provider.complete(
            LLMRequest(
                prompt=(
                    "Which company is the manufacturer of this product? Answer "
                    'with the company name only.\nProduct: {"name": "PlayStation 2 Memory Card"}'
                )
            )
        )
        assert response.text.startswith("Sony")

    def test_unknown_product(self):
        provider = SimulatedProvider()
        response = provider.complete(
            LLMRequest(
                prompt=(
                    "Which company is the manufacturer of this product? Answer "
                    'with the company name only.\nProduct: {"name": "Generic Widget 3000"}'
                )
            )
        )
        assert response.text.startswith("Unknown")


class TestTaggingSkill:
    def test_language_hint_improves_foreign_names(self):
        provider = SimulatedProvider()
        hinted = provider.complete(
            LLMRequest(prompt="Is this a person name?\nPhrase: Hans Müller\nLanguage: de")
        )
        assert hinted.text.startswith("Yes")

    def test_rejects_company(self):
        provider = SimulatedProvider()
        response = provider.complete(
            LLMRequest(prompt="Is this a person name?\nPhrase: Acme Corporation")
        )
        assert response.text.startswith("No")


class TestNL2SQL:
    def respond(self, question: str) -> str:
        provider = SimulatedProvider()
        prompt = (
            "Translate the question into a single SQL SELECT statement for this schema. "
            "Answer with SQL only.\n"
            "Schema: TABLE products (id INT, name TEXT, price FLOAT)\n"
            f"Question: {question}"
        )
        return provider.complete(LLMRequest(prompt=prompt)).text

    def test_count_question(self):
        sql = self.respond("How many products have price over 20?")
        assert sql.startswith("SELECT COUNT(*)")
        assert "price > 20" in sql

    def test_average_question(self):
        assert "AVG(price)" in self.respond("What is the average of price?")

    def test_max_question(self):
        sql = self.respond("Which product has the highest price?")
        assert "ORDER BY price DESC LIMIT 1" in sql

    def test_listing_question(self):
        sql = self.respond("Show the name of products under 10")
        assert sql.startswith("SELECT name")


class TestSkillStackOrder:
    def test_fallback_is_last(self):
        skills = default_skills()
        assert skills[-1].name == "chat"

    def test_all_skills_have_unique_names(self):
        names = [s.name for s in default_skills()]
        assert len(names) == len(set(names))
