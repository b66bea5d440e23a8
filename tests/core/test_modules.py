"""Tests for the physical module system."""

from __future__ import annotations

import pytest

from repro.core.compiler.plan import _tree_degraded
from repro.core.modules.base import Module, ModuleExecutionError
from repro.core.modules.custom import CustomModule
from repro.core.modules.cascade import CascadeModule
from repro.core.modules.llm_module import (
    LLMModule,
    parse_leading_word,
    parse_yes_no,
)
from repro.core.modules.llmgc import CodeSandboxError, LLMGCModule, compile_generated_code
from repro.core.modules.mapping import EnrichModule, MapModule
from repro.core.modules.validation import NonEmptyValidator
from repro.core.runtime.scheduler import tree_parallel_safe
from repro.llm.errors import MalformedResponseError


class TestCustomModule:
    def test_runs_function(self):
        module = CustomModule("double", lambda x: x * 2)
        assert module.run(21) == 42

    def test_stats_count_invocations(self):
        module = CustomModule("id", lambda x: x)
        for i in range(3):
            module.run(i)
        assert module.stats.invocations == 3
        assert module.stats.failures == 0

    def test_failures_wrapped_and_counted(self):
        module = CustomModule("boom", lambda x: 1 / 0)
        with pytest.raises(ModuleExecutionError):
            module.run(1)
        assert module.stats.failures == 1


class TestComposition:
    def test_decorated_children_are_walked_once(self):
        """One tree walker: ``inner``, ``fallback`` and ``teacher`` are children."""

        def picky(value):
            if value == "bad":
                raise ValueError("bad record")
            return value

        def skipping_map(name):
            return MapModule(
                name, CustomModule(f"{name}-inner", picky),
                error_policy="skip_record",
            )

        outer = MapModule("o", skipping_map("m"))
        assert outer.run([["a", "bad", "b"]]) == [["a", "b"]]
        assert [q.record for q in outer.drain_quarantine()] == ["bad"]
        assert outer.drain_quarantine() == []
        assert outer.config_identity() != MapModule(
            "o", skipping_map("n")
        ).config_identity()

        class Degrading(Module):
            """A batch module's shape: a failed item goes to ``fallback``."""

            def __init__(self):
                super().__init__("d")
                self.inner = CustomModule("d-inner", picky)
                self.fallback = CustomModule("d-fallback", str.upper)

            def _run(self, values):
                out = []
                for value in values:
                    try:
                        out.append(self.inner.run(value))
                    except ModuleExecutionError:
                        out.append(self.fallback.run(value))
                        self.stats.degraded += 1
                return out

        degrading = Degrading()
        assert [name for name, _ in degrading._children()] == ["inner", "fallback"]
        assert degrading.config_identity() != MapModule(
            "d", CustomModule("d-inner", picky)
        ).config_identity()

        cascade = CascadeModule(
            "c", rule=lambda value: 0.5, teacher=degrading, lower=0.0, upper=1.0
        )
        assert cascade.run(["a", "bad"]) == ["a", "BAD"]
        assert [name for name, _ in cascade._children()] == ["teacher"]
        assert _tree_degraded(cascade) == 1
        assert tree_parallel_safe(cascade)
        degrading.fallback.parallel_safe = False
        assert not tree_parallel_safe(cascade)

    def test_map_module(self):
        mapper = MapModule("m", CustomModule("inc", lambda x: x + 1))
        assert mapper.run([1, 2]) == [2, 3]

    def test_map_rejects_non_list(self):
        mapper = MapModule("m", CustomModule("inc", lambda x: x + 1))
        with pytest.raises(ModuleExecutionError):
            mapper.run(5)

    def test_enrich_adds_key(self):
        stage = EnrichModule("e", lambda text: text.upper(), "text", "loud")
        assert stage.run({"text": "hi"}) == {"text": "hi", "loud": "HI"}

    def test_enrich_whole_doc(self):
        stage = EnrichModule(
            "e", lambda doc: len(doc["text"]), "text", "n", whole_doc=True
        )
        assert stage.run({"text": "abc"})["n"] == 3

    def test_enrich_does_not_mutate_input(self):
        stage = EnrichModule("e", lambda t: t, "text", "copy")
        doc = {"text": "x"}
        stage.run(doc)
        assert "copy" not in doc


class TestParsers:
    def test_parse_yes_no(self):
        assert parse_yes_no("Yes. Definitely.") is True
        assert parse_yes_no("no way") is False

    def test_parse_yes_no_rejects_other(self):
        with pytest.raises(MalformedResponseError):
            parse_yes_no("maybe?")

    def test_parse_leading_word(self):
        assert parse_leading_word("Sony. The product ...") == "Sony"

    def test_parse_leading_word_rejects_empty(self):
        with pytest.raises(MalformedResponseError):
            parse_leading_word("   ")


class TestValidators:
    def test_non_empty(self):
        v = NonEmptyValidator()
        assert v.check([1])[0] is True
        assert v.check([])[0] is False
        assert v.check(None)[0] is False
        assert v.check(0)[0] is True  # scalars pass


class TestLLMModule:
    def test_entity_matching_module(self, service):
        module = LLMModule(
            "match",
            service,
            task_description=(
                "Entity resolution: determine if the following two records "
                "refer to the same entity. Answer Yes or No."
            ),
            parser=parse_yes_no,
            render=lambda pair: (
                f'Record A: {{"name": "{pair[0]}"}}\nRecord B: {{"name": "{pair[1]}"}}'
            ),
            examples=[("Record A: x Record B: x", "Yes")],
        )
        assert module.run(("Stone IPA", "Stone IPA")) is True

    def test_prompt_contains_examples_and_instructions(self, service):
        module = LLMModule(
            "m",
            service,
            task_description="Do the thing.",
            examples=[("in", "out")],
        )
        prompt = module.build_prompt("payload")
        assert "Task: Do the thing." in prompt
        assert "Example 1:" in prompt
        assert prompt.rstrip().endswith("payload")

    def test_strict_reprompt_appended(self, service):
        module = LLMModule("m", service, task_description="t")
        assert "strictly" in module.build_prompt("x", strictness=1)
        assert "IMPORTANT" in module.build_prompt("x", strictness=2)

    def test_validation_failure_retries_then_raises(self, service):
        module = LLMModule(
            "m",
            service,
            task_description="Summarize the text.",
            parser=lambda text: "",
            validators=[NonEmptyValidator()],
        )
        with pytest.raises(ModuleExecutionError):
            module.run("Some text to summarize here.")
        assert module.validation_retries == 2


class TestLLMGC:
    def test_sandbox_compiles_and_runs(self):
        fn = compile_generated_code("def run(value, tools):\n    return value + 1\n")
        assert fn(1, {}) == 2

    def test_sandbox_blocks_disallowed_import(self):
        with pytest.raises(CodeSandboxError):
            compile_generated_code("import os\ndef run(value, tools):\n    return 1\n")

    def test_sandbox_allows_whitelisted_import(self):
        fn = compile_generated_code(
            "import re\ndef run(value, tools):\n    return bool(re.match('a', value))\n"
        )
        assert fn("abc", {}) is True

    def test_sandbox_requires_run(self):
        with pytest.raises(CodeSandboxError):
            compile_generated_code("x = 1\n")

    def test_sandbox_rejects_broken_code(self):
        with pytest.raises(CodeSandboxError):
            compile_generated_code("def run(value, tools)\n    return 1\n")

    def test_generate_and_run(self, service):
        module = LLMGCModule(
            "tok", service, task_description="tokenize a sentence into words"
        )
        module.generate()
        assert module.revision == 0
        assert module.run("a b") == ["a", "b"]

    def test_lazy_generation_on_first_run(self, service):
        module = LLMGCModule("tok", service, "tokenize text")
        assert module.source is None
        module.run("hello world")
        assert module.source is not None

    def test_repair_advances_revision(self, service):
        module = LLMGCModule("tok", service, "tokenize text")
        module.generate()
        module.repair("handle punctuation")
        assert module.revision == 1
        assert module.run("Hi there.") == ["Hi", "there", "."]

    def test_regenerate_from_scratch_resets(self, service):
        module = LLMGCModule("tok", service, "tokenize text")
        module.generate()
        module.repair("fix")
        module.regenerate_from_scratch()
        assert module.revision == 0

    def test_runtime_error_in_generated_code_is_wrapped(self, service):
        module = LLMGCModule("tok", service, "tokenize text")
        module.generate()
        with pytest.raises(ModuleExecutionError):
            module.run(42)  # not a string
