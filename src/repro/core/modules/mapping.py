"""Mapping and enrichment adapters.

Pipelines process datasets (lists of records/documents); most physical
modules judge a *single* item.  These adapters bridge the two levels:

- :class:`MapModule` applies an item-level module to each element of a list.
- :class:`EnrichModule` threads dict-shaped documents through a stage,
  storing the stage's output under a new key (the document-enrichment
  protocol the name-extraction pipeline uses).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.modules.base import ChunkOutcome, ErrorPolicy, Module

__all__ = ["MapModule", "EnrichModule"]


class MapModule(Module):
    """Apply ``inner`` to every element of a list input.

    ``error_policy`` controls record-level isolation (see
    :class:`~repro.core.modules.base.ErrorPolicy`): under ``skip_record`` a
    failing element is quarantined and omitted from the output; under
    ``degrade`` the optional ``fallback`` module answers for it first, and
    only a double failure quarantines.  ``fail`` keeps the legacy
    abort-the-run behaviour.

    Map application is chunk-capable: the parallel scheduler may split the
    input list into record chunks and run :meth:`apply_chunk` on several
    worker threads.  When the inner module exposes ``prefetch`` (the LLM
    module does), each chunk first pays for its uncached prompts with one
    batched provider call, so N records cost one provider round trip, not N.
    """

    module_type = "decorated"
    chunk_capable = True

    def __init__(
        self,
        name: str,
        inner: Module,
        error_policy: str = ErrorPolicy.FAIL,
        fallback: Module | None = None,
    ):
        super().__init__(name)
        self.inner = inner
        self.error_policy = ErrorPolicy.validate(error_policy)
        self.fallback = fallback

    def _apply_items(self, items: list[Any]) -> tuple[list[Any], int]:
        """Run the per-item loop; returns ``(outputs, degraded_count)``.

        Quarantined records flow through :meth:`quarantine_record`, which
        respects an active ``collecting_quarantine`` bucket.
        """
        if self.error_policy == ErrorPolicy.FAIL:
            return [self.inner.run(item) for item in items], 0
        out: list[Any] = []
        degraded_count = 0
        for item in items:
            try:
                out.append(self.inner.run(item))
            except Exception as error:
                degraded = False
                if (
                    self.error_policy == ErrorPolicy.DEGRADE
                    and self.fallback is not None
                ):
                    try:
                        out.append(self.fallback.run(item))
                        degraded_count += 1
                        degraded = True
                        if self.obs is not None:
                            self.obs.metrics.counter("module.degraded").inc()
                    except Exception as fallback_error:
                        error = fallback_error
                if not degraded:
                    self.quarantine_record(item, error)
        return out, degraded_count

    def _run(self, value: Any) -> Any:
        if not isinstance(value, list):
            raise TypeError(
                f"{self.name} expects a list, got {type(value).__name__}"
            )
        out, degraded = self._apply_items(value)
        if degraded:
            with self._lock:
                self.stats.degraded += degraded
        return out

    def prefetch(self, values: list[Any]) -> int:
        """Delegate cache warming to the inner module (if it supports it).

        Makes prefetch compose through wrapper stacks — a map over a map
        (or over a distillation router exposing its teacher's prefetch)
        still batches provider calls per chunk.  The service consults the
        cache before priming, so a warm run prefetches nothing.
        """
        prefetch = getattr(self.inner, "prefetch", None)
        if callable(prefetch):
            return prefetch(values)
        return 0

    def apply_chunk(self, chunk: list[Any]) -> ChunkOutcome:
        """Scheduler hook: process one record chunk in isolation."""
        try:
            self.prefetch(chunk)
            with self.collecting_quarantine() as bucket:
                out, degraded = self._apply_items(chunk)
        finally:
            self.drop_prefetched()
        return ChunkOutcome(outputs=out, quarantine=bucket, degraded=degraded)

    def describe(self) -> str:
        """Rendering that exposes the mapped module."""
        policy = (
            "" if self.error_policy == ErrorPolicy.FAIL else f", {self.error_policy}"
        )
        return f"{self.name} <map over {self.inner.describe()}{policy}>"


class EnrichModule(Module):
    """Document enrichment: ``doc[out_key] = stage(doc[in_key])``.

    ``stage`` may be a :class:`Module` or a plain callable; when
    ``whole_doc`` is true the stage receives the entire document rather
    than ``doc[in_key]`` (for stages that need several keys).
    """

    module_type = "decorated"

    def __init__(
        self,
        name: str,
        stage: Module | Callable[[Any], Any],
        in_key: str,
        out_key: str,
        whole_doc: bool = False,
    ):
        super().__init__(name)
        self.stage = stage
        self.in_key = in_key
        self.out_key = out_key
        self.whole_doc = whole_doc

    def _apply(self, payload: Any) -> Any:
        if isinstance(self.stage, Module):
            return self.stage.run(payload)
        return self.stage(payload)

    def _run(self, value: Any) -> Any:
        if not isinstance(value, dict):
            raise TypeError(f"{self.name} expects a document dict")
        payload = value if self.whole_doc else value[self.in_key]
        out = dict(value)
        out[self.out_key] = self._apply(payload)
        return out

    def describe(self) -> str:
        """Rendering showing the key flow."""
        source = "doc" if self.whole_doc else self.in_key
        return f"{self.name} <enrich {source} -> {self.out_key}>"
