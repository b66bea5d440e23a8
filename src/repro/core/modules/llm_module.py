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
from repro.llm.errors import LLMError, MalformedResponseError, ProviderError
from repro.llm.service import LLMService

__all__ = [
    "LLMModule",
    "render_value",
    "parse_yes_no",
    "parse_leading_word",
]


def _payload_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, ensure_ascii=False, sort_keys=True, default=str)``.

    ``JSONEncoder.encode`` builds a C encoder on every call; this builds
    the same one (same separators, ``sort_keys``, ``allow_nan`` and
    ``default``) once.  It keeps no state between calls, so threads share
    it: passing no circular-reference markers is what makes it stateless,
    and a payload is a record, never a cycle.  Without the C accelerator
    it is the stdlib's pure-Python ``encode``.
    """
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return json.JSONEncoder(ensure_ascii=False, sort_keys=True, default=str).encode
    encode = make_encoder(
        None, str, json.encoder.encode_basestring, None, ": ", ", ", True, False, True
    )

    def encode_payload(value: Any) -> str:
        return "".join(encode(value, 0))

    return encode_payload


encode_payload = _payload_encoder()

#: Prompts a record gets: the first, then one stricter re-prompt.
_ATTEMPTS = 2

#: What a re-prompt at each strictness appends (strictness 2 and above
#: share the last).
_STRICT_SUFFIX = (
    "",
    "\nAnswer strictly in the required output format, with no extra words.",
    "\nIMPORTANT: your previous answer was malformed. Output ONLY the "
    "required value and nothing else.",
)


def render_value(value: Any) -> str:
    """Default payload rendering: dicts as JSON, everything else as str."""
    if isinstance(value, dict):
        return encode_payload(value)
    return str(value)


_YES_NO = re.compile(r"\s*(yes|no)\b", re.IGNORECASE)


def parse_yes_no(text: str) -> bool:
    """Parse a yes/no answer; raises :class:`MalformedResponseError`."""
    match = _YES_NO.match(text)
    if match is None:
        raise MalformedResponseError(f"expected Yes/No, got {text[:80]!r}")
    return match.group(1).lower() == "yes"


def parse_leading_word(text: str) -> str:
    """First word/phrase up to the sentence-ending period."""
    head = text.strip().split(".")[0].strip()
    if not head:
        raise MalformedResponseError("empty response")
    return head


class LLMModule(Module):
    """A module implemented by prompting the LLM service.

    Parameters
    ----------
    service:
        The cached :class:`LLMService` to call.
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

    A parse or validation failure re-prompts once, more strictly, before
    the module gives up and raises.
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
        purpose: str | None = None,
    ):
        super().__init__(name)
        self.service = service
        self.task_description = task_description
        self.parser = parser
        self.render = render
        self.payload_label = payload_label
        self.examples = list(examples)
        self.validators = list(validators)
        self.purpose = purpose or name
        self.validation_retries = 0
        self.provider_failures = 0
        self._prefix: str | None = None

    def config_identity(self) -> dict:
        identity = super().config_identity()
        identity.update(
            task=self.task_description,
            payload_label=self.payload_label,
            examples=[list(pair) for pair in self.examples],
            purpose=self.purpose,
        )
        return identity

    def build_prompt(self, value: Any, strictness: int = 0) -> str:
        """Render the full prompt for ``value``.

        The task, worked examples and payload label form a
        prefix every prompt of this module shares; it is rendered once, on
        the first call, from the attributes as they are then.
        ``strictness`` > 0 appends increasingly firm output-format demands —
        the re-prompt path after a validation failure.
        """
        prefix = self._prefix
        if prefix is None:
            lines = [f"Task: {self.task_description}"]
            for index, (example_in, example_out) in enumerate(self.examples, start=1):
                lines.append(f"Example {index}:")
                lines.append(f"{self.payload_label}: {example_in}")
                lines.append(f"Output: {example_out}")
            lines.append(f"{self.payload_label}: ")
            prefix = self._prefix = "\n".join(lines)
        suffix = _STRICT_SUFFIX[min(max(strictness, 0), 2)]
        return prefix + self.render(value) + suffix

    def prefetch(self, values: Sequence[Any]) -> int:
        """Pay for ``values``' uncached prompts with one batched call.

        Builds the first-attempt prompt for every value and submits the
        distinct uncached ones through :meth:`LLMService.prime`, so a chunk
        of N records costs one provider round trip plus one per retry
        round of the items that failed.  Nothing is raised here: the
        answer — or the error the service gave up with — reaches the
        per-item run of the record that asked, which owns
        fallback/quarantine semantics; a value whose prompt cannot be
        rendered is left out here and fails there.

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
        answers: dict[str, str | LLMError] = {}
        self._tls.rendered = rendered
        self._tls.answers = answers
        return self.service.prime(prompts, purpose=self.purpose, answers=answers)

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

    def _paid_answer(self, prompt: str) -> str | LLMError | None:
        """What prefetch paid for ``prompt`` in this chunk, once.

        The answer, or the error the service gave up with.  The provider
        call is already in the ledger (and an answer in the cache); asking
        the service again would only ledger a cache hit for an answer
        nothing reused, or spend a second retry budget on a failure.
        Taken, not read: a second record with the same prompt asks the
        service and is what it looks like.
        """
        answers = getattr(self._tls, "answers", None)
        return answers.pop(prompt, None) if answers else None

    def _run(self, value: Any) -> Any:
        last_problem = ""
        for attempt in range(_ATTEMPTS):
            text = None
            if attempt == 0:
                prompt = self._first_prompt(value)
                text = self._paid_answer(prompt)
            else:
                prompt = self.build_prompt(value, strictness=attempt)
            if not isinstance(text, str):
                try:
                    if text is not None:
                        raise text  # what ``complete`` would have raised
                    text = self.service.complete(prompt, purpose=self.purpose)
                except ProviderError:
                    # The service already exhausted its resilience policy
                    # (retries, deadline); count it so run reports can
                    # attribute outages per operator, then let the
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
            f"{_ATTEMPTS} attempts: {last_problem}"
        )

    def _validate(self, parsed: Any) -> str | None:
        for validator in self.validators:
            ok, message = validator.check(parsed)
            if not ok:
                return message
        return None
