"""LLM modules: a prompt template plus output parsing and validation.

Paper section 3.1: "An LLM itself can be a module ... an LLM module requires
a good task description as input; and LLM outputs typically need proper
validation."  This class owns the whole prompt lifecycle: render the task
description, worked examples and the input payload; call the service; parse
the text; validate; and re-prompt with a stricter instruction when
validation fails.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Sequence

from repro.core.modules.base import Module
from repro.core.modules.validation import OutputValidator
from repro.llm.errors import MalformedResponseError, ProviderError
from repro.llm.service import LLMService

__all__ = [
    "LLMModule",
    "render_value",
    "parse_yes_no",
    "parse_leading_word",
    "parse_number",
]


def render_value(value: Any) -> str:
    """Default payload rendering: dicts as JSON, everything else as str."""
    if isinstance(value, dict):
        return json.dumps(value, ensure_ascii=False, sort_keys=True, default=str)
    return str(value)


def parse_yes_no(text: str) -> bool:
    """Parse a yes/no answer; raises :class:`MalformedResponseError`."""
    match = re.match(r"\s*(yes|no)\b", text, re.IGNORECASE)
    if match is None:
        raise MalformedResponseError(f"expected Yes/No, got {text[:80]!r}")
    return match.group(1).lower() == "yes"


def parse_leading_word(text: str) -> str:
    """First word/phrase up to the sentence-ending period."""
    head = text.strip().split(".")[0].strip()
    if not head:
        raise MalformedResponseError("empty response")
    return head


def parse_number(text: str) -> float:
    """First decimal number in the response."""
    match = re.search(r"-?\d+(?:\.\d+)?", text)
    if match is None:
        raise MalformedResponseError(f"no number in {text[:80]!r}")
    return float(match.group())


class LLMModule(Module):
    """A module implemented by prompting the LLM service.

    Parameters
    ----------
    service:
        The budgeted/cached :class:`LLMService` to call.
    task_description:
        Natural-language statement of the task ("Determine if the following
        entities are equivalent").  This is what the no-code user writes.
    parser:
        Maps the raw response text to the module's output value; raise
        :class:`MalformedResponseError` to trigger a validation retry.
    render:
        Maps the input value to the payload section of the prompt.
    payload_label:
        Label for the payload line (``Input`` by default; e.g. ``Phrase``).
    examples:
        Worked ``(input_text, output_text)`` pairs — few-shot examples that
        measurably improve the simulated model just like a real one.
    validators:
        Post-parse checks; failures trigger one stricter re-prompt before
        the module gives up and raises.
    instructions:
        Extra standing instructions (domain knowledge injected in NL).
    prompt_version:
        Version tag mixed into the service's cache keys.  Bump it whenever
        the prompt template's *semantics* change (task rewording, new
        parser) so stale cached answers from the previous revision — or
        from another skill sharing a prompt string — can never be served.
    """

    module_type = "llm"

    def __init__(
        self,
        name: str,
        service: LLMService,
        task_description: str,
        parser: Callable[[str], Any] = parse_leading_word,
        render: Callable[[Any], str] = render_value,
        payload_label: str = "Input",
        examples: Sequence[tuple[str, str]] = (),
        validators: Sequence[OutputValidator] = (),
        instructions: str = "",
        max_attempts: int = 2,
        purpose: str | None = None,
        prompt_version: str = "",
    ):
        super().__init__(name)
        self.service = service
        self.task_description = task_description
        self.parser = parser
        self.render = render
        self.payload_label = payload_label
        self.examples = list(examples)
        self.validators = list(validators)
        self.instructions = instructions
        self.max_attempts = max(1, max_attempts)
        self.purpose = purpose or name
        self.prompt_version = prompt_version
        self.validation_retries = 0
        self.provider_failures = 0

    def config_identity(self) -> dict:
        identity = super().config_identity()
        identity.update(
            task=self.task_description,
            payload_label=self.payload_label,
            examples=[list(pair) for pair in self.examples],
            instructions=self.instructions,
            version=self.prompt_version,
            max_attempts=self.max_attempts,
            purpose=self.purpose,
        )
        return identity

    def build_prompt(self, value: Any, strictness: int = 0) -> str:
        """Render the full prompt for ``value``.

        ``strictness`` > 0 appends increasingly firm output-format demands —
        the re-prompt path after a validation failure.
        """
        lines = [f"Task: {self.task_description}"]
        if self.instructions:
            lines.append(self.instructions)
        for index, (example_in, example_out) in enumerate(self.examples, start=1):
            lines.append(f"Example {index}:")
            lines.append(f"{self.payload_label}: {example_in}")
            lines.append(f"Output: {example_out}")
        lines.append(f"{self.payload_label}: {self.render(value)}")
        if strictness == 1:
            lines.append(
                "Answer strictly in the required output format, with no extra words."
            )
        elif strictness >= 2:
            lines.append(
                "IMPORTANT: your previous answer was malformed. Output ONLY the "
                "required value and nothing else."
            )
        return "\n".join(lines)

    def prefetch(self, values: Sequence[Any]) -> int:
        """Pay for ``values``' uncached prompts with one batched call.

        Builds the first-attempt prompt for every value and submits the
        distinct uncached ones through the service's batched provider path
        (:meth:`LLMService.prime`), so a chunk of N records costs one
        provider round trip.  Best effort: failures surface on the per-item
        path, which owns retry/fallback/quarantine semantics — a value whose
        prompt cannot be rendered is left out here and fails there.

        The rendered prompts and the answers this call paid for stay on
        this thread for the per-item calls of the same chunk (see
        :meth:`_first_prompt`, :meth:`_paid_answer`), until
        :meth:`drop_prefetched`.
        """
        rendered: dict[int, tuple[Any, str]] = {}
        prompts: list[str] = []
        for value in values:
            try:
                prompt = self.build_prompt(value, strictness=0)
            except Exception:
                # Not this method's failure to report: ``run`` renders the
                # value again and raises inside the caller's error policy.
                continue
            rendered[id(value)] = (value, prompt)
            prompts.append(prompt)
        answers: dict[str, str] = {}
        self._tls.rendered = rendered
        self._tls.answers = answers
        return self.service.prime(
            prompts, purpose=self.purpose, version=self.prompt_version, answers=answers
        )

    def drop_prefetched(self) -> None:
        """Forget what :meth:`prefetch` rendered and paid for on this thread."""
        self._tls.rendered = None
        self._tls.answers = None

    def _first_prompt(self, value: Any) -> str:
        """The first-attempt prompt: prefetch's rendering of ``value``, once.

        The hand-off is keyed on the identity of the value object — each
        entry holds its value, so an ``id`` cannot be recycled while the
        entry exists — and an entry is taken, not read: any other object
        (a copy, a replacement) and any second run render afresh.
        """
        rendered = getattr(self._tls, "rendered", None)
        if rendered:
            entry = rendered.pop(id(value), None)
            if entry is not None:
                return entry[1]
        return self.build_prompt(value, strictness=0)

    def _paid_answer(self, prompt: str) -> str | None:
        """The answer prefetch paid for ``prompt`` in this chunk, once.

        The provider call is already in the ledger and the cache; asking
        the service again would only ledger a cache hit for an answer
        nothing reused.  Taken, not read: a second record with the same
        prompt asks the service and is the cache hit it looks like.
        """
        answers = getattr(self._tls, "answers", None)
        return answers.pop(prompt, None) if answers else None

    def _run(self, value: Any) -> Any:
        last_problem = ""
        for attempt in range(self.max_attempts):
            text = None
            if attempt == 0:
                prompt = self._first_prompt(value)
                text = self._paid_answer(prompt)
            else:
                prompt = self.build_prompt(value, strictness=attempt)
            if text is None:
                try:
                    text = self.service.complete(
                        prompt, purpose=self.purpose, version=self.prompt_version
                    )
                except ProviderError:
                    # The service already exhausted its resilience policy
                    # (retries, fallback providers, breaker); count it so run
                    # reports can attribute outages per operator, then let the
                    # executor's error policy decide the record's fate.
                    self.provider_failures += 1
                    raise
            try:
                parsed = self.parser(text)
            except MalformedResponseError as error:
                last_problem = str(error)
                self.validation_retries += 1
                continue
            problem = self._validate(parsed)
            if problem is None:
                return parsed
            last_problem = problem
            self.validation_retries += 1
        raise MalformedResponseError(
            f"module {self.name!r}: output failed validation after "
            f"{self.max_attempts} attempts: {last_problem}"
        )

    def _validate(self, parsed: Any) -> str | None:
        for validator in self.validators:
            ok, message = validator.check(parsed)
            if not ok:
                return message
        return None
