"""Batched LLM module: many inputs per prompt, numbered answers back.

The counterpart of :class:`~repro.core.modules.llm_module.LLMModule` for
cost-sensitive pipelines: inputs are packed ``batch_size`` at a time into a
single prompt (``Pair 1: ...``, ``Pair 2: ...``) and the numbered answers
are parsed back out.  A malformed or incomplete response falls back to
re-asking the affected items individually, so batching can reduce cost but
never correctness.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Sequence

from repro.core.modules.base import ChunkOutcome, ErrorPolicy, Module
from repro.llm.errors import LLMError
from repro.llm.service import LLMService

__all__ = ["BatchLLMModule"]

_ANSWER_RE = re.compile(r"^\s*(\d+)\s*:\s*(.+?)\s*$", re.MULTILINE)


class BatchLLMModule(Module):
    """Batch prompting over a list input.

    Parameters
    ----------
    render_item:
        Maps one input value to its prompt section body.
    parse_answer:
        Maps one numbered answer string to the module's output value.
    item_label:
        Section header word (``Pair`` for matching, ``Item`` generically).
    fallback:
        Per-item module used when an item's answer is missing or unparseable
        (typically the single-item :class:`LLMModule`).
    """

    module_type = "llm"
    chunk_capable = True

    def __init__(
        self,
        name: str,
        service: LLMService,
        task_description: str,
        render_item: Callable[[Any], str],
        parse_answer: Callable[[str], Any],
        batch_size: int = 10,
        item_label: str = "Pair",
        examples: Sequence[tuple[str, str]] = (),
        fallback: Module | None = None,
        purpose: str | None = None,
        error_policy: str = ErrorPolicy.FAIL,
        prompt_version: str = "",
    ):
        super().__init__(name)
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.error_policy = ErrorPolicy.validate(error_policy)
        self.prompt_version = prompt_version
        self.service = service
        self.task_description = task_description
        self.render_item = render_item
        self.parse_answer = parse_answer
        self.batch_size = batch_size
        self.item_label = item_label
        self.examples = list(examples)
        self.fallback = fallback
        self.purpose = purpose or name
        self.fallback_items = 0
        # Align scheduler chunks to whole batches: each chunk is exactly
        # one batch prompt, so chunking never changes prompt contents.
        self.preferred_chunk_size = batch_size

    def build_prompt(self, batch: Sequence[Any]) -> str:
        """Render the numbered batch prompt."""
        lines = [f"Task: {self.task_description}"]
        for index, (example_in, example_out) in enumerate(self.examples, start=1):
            lines.append(f"Example {index}:")
            lines.append(f"{self.item_label}: {example_in}")
            lines.append(f"Output: {example_out}")
        lines.append(
            f"Answer each {self.item_label.lower()} on its own line as "
            f"'<number>: <answer>'."
        )
        for number, value in enumerate(batch, start=1):
            lines.append(f"{self.item_label} {number}:")
            lines.append(self.render_item(value))
        return "\n".join(lines)

    def _item_via_fallback(
        self, index: int, value: Any, batch_error: Exception | None
    ) -> tuple[Any, bool]:
        """Resolve one item whose batched answer is unavailable.

        Returns ``(parsed, ok)``; under a non-``fail`` error policy a double
        failure quarantines the record instead of raising.
        """
        error: Exception
        if self.fallback is not None:
            try:
                return self.fallback.run(value), True
            except Exception as fallback_error:
                error = fallback_error
        else:
            error = batch_error or ValueError(
                f"{self.name}: no parseable answer for item {index + 1} "
                "and no fallback configured"
            )
        if self.error_policy == ErrorPolicy.FAIL:
            raise error
        self.quarantine_record(value, error)
        return None, False

    def _run(self, values: Any) -> list[Any]:
        if not isinstance(values, list):
            raise TypeError(f"{self.name} expects a list of inputs")
        results: list[Any] = [None] * len(values)
        quarantined: set[int] = set()
        for start in range(0, len(values), self.batch_size):
            indices = list(range(start, min(start + self.batch_size, len(values))))
            batch = [values[i] for i in indices]
            try:
                response = self.service.complete(
                    self.build_prompt(batch),
                    purpose=self.purpose,
                    max_tokens=1024,
                    version=self.prompt_version,
                )
            except LLMError as batch_error:
                if self.error_policy == ErrorPolicy.FAIL:
                    raise
                # The whole batch prompt failed (outage, budget):
                # resolve each item individually, quarantining double failures.
                for original_index in indices:
                    with self._lock:
                        self.fallback_items += 1
                    if self.obs is not None:
                        self.obs.metrics.counter("batch_llm.fallback_items").inc()
                    parsed, ok = self._item_via_fallback(
                        original_index, values[original_index], batch_error
                    )
                    if ok:
                        results[original_index] = parsed
                    else:
                        quarantined.add(original_index)
                continue
            answered: dict[int, str] = {}
            for number_text, answer in _ANSWER_RE.findall(response):
                answered[int(number_text)] = answer
            for offset, original_index in enumerate(indices, start=1):
                answer = answered.get(offset)
                parsed: Any = None
                ok = False
                if answer is not None:
                    try:
                        parsed = self.parse_answer(answer)
                        ok = True
                    except Exception:
                        ok = False
                if not ok:
                    with self._lock:
                        self.fallback_items += 1
                    if self.obs is not None:
                        self.obs.metrics.counter("batch_llm.fallback_items").inc()
                    parsed, ok = self._item_via_fallback(
                        original_index, values[original_index], None
                    )
                    if not ok:
                        quarantined.add(original_index)
                        continue
                results[original_index] = parsed
        if quarantined:
            return [r for i, r in enumerate(results) if i not in quarantined]
        return results

    def apply_chunk(self, chunk: list[Any]) -> ChunkOutcome:
        """Scheduler hook: one chunk is one (or a few) batch prompts."""
        with self.collecting_quarantine() as bucket:
            out = self._run(list(chunk))
        return ChunkOutcome(outputs=out, quarantine=bucket, degraded=0)

    def describe(self) -> str:
        """Batch size plus fallback accounting."""
        return (
            f"{self.name} <llm batch={self.batch_size}, "
            f"fallbacks={self.fallback_items}>"
        )
