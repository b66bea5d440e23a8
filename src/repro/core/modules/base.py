"""The physical module interface.

Paper section 3.1: "A module is a function f: X -> Y ... Modules are usually
viewed as black boxes".  Every physical implementation — custom code, an LLM
prompt, LLM-generated code, or a decorated composite — implements
:class:`Module`.  Per-module statistics feed the optimizer and the run
reports.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "ErrorPolicy",
    "ModuleStats",
    "Module",
    "ModuleExecutionError",
    "QuarantinedRecord",
    "ChunkOutcome",
]


class ErrorPolicy:
    """Per-operator failure handling for record-level execution.

    - ``fail``: any record failure aborts the whole run (legacy behaviour).
    - ``skip_record``: a poisoned record is quarantined; the rest proceed.
    - ``degrade``: route the failed record to the module's fallback (the
      batch module's per-item matcher); quarantine it if that also fails,
      or if the module has none.
    """

    FAIL = "fail"
    SKIP_RECORD = "skip_record"
    DEGRADE = "degrade"

    ALL = (FAIL, SKIP_RECORD, DEGRADE)

    @classmethod
    def validate(cls, policy: str) -> str:
        """Return ``policy`` or raise on an unknown name."""
        if policy not in cls.ALL:
            raise ValueError(f"unknown error policy {policy!r}; known: {cls.ALL}")
        return policy


@dataclass(frozen=True)
class QuarantinedRecord:
    """One record a module isolated instead of letting it kill the run."""

    record: Any
    module_name: str
    error: str

    def to_text(self) -> str:
        """One-line rendering for run reports."""
        return f"{self.module_name}: {self.record!r} ({self.error})"


class ModuleExecutionError(RuntimeError):
    """A module failed while processing an input."""

    def __init__(self, module_name: str, value: Any, cause: BaseException):
        super().__init__(f"module {module_name!r} failed on {value!r}: {cause}")
        self.module_name = module_name
        self.value = value
        self.cause = cause


@dataclass
class ChunkOutcome:
    """What one record chunk produced under the parallel scheduler.

    Quarantined records and degraded counts are *returned* rather than
    applied to the module's shared state, so the scheduler can merge them
    in deterministic chunk order regardless of thread completion order.
    """

    outputs: list[Any] = field(default_factory=list)
    quarantine: list[QuarantinedRecord] = field(default_factory=list)
    degraded: int = 0


@dataclass
class ModuleStats:
    """Lifetime counters for one module instance."""

    invocations: int = 0
    failures: int = 0
    total_seconds: float = 0.0
    quarantined: int = 0
    degraded: int = 0

    def to_text(self) -> str:
        """One-line rendering."""
        text = (
            f"invocations={self.invocations} failures={self.failures} "
            f"time={self.total_seconds:.3f}s"
        )
        if self.quarantined or self.degraded:
            text += f" quarantined={self.quarantined} degraded={self.degraded}"
        return text


class Module(ABC):
    """A black-box function ``f: X -> Y`` with stats and a module type tag.

    Modules may be driven from several worker threads at once by the
    parallel scheduler (:mod:`repro.core.runtime.scheduler`), so all shared
    counters are guarded by ``_lock``.  List-processing modules that can be
    split into independent record chunks advertise ``chunk_capable`` and
    implement :meth:`apply_chunk`; modules whose behaviour depends on call
    order (online learners, lazily generated code) set ``parallel_safe``
    to ``False`` to force whole-input sequential execution.
    """

    #: type tag shown in plans/UI: custom | llm | llmgc | decorated
    module_type: str = "custom"
    #: whether the scheduler may split a list input into record chunks
    chunk_capable: bool = False
    #: whether concurrent execution preserves this module's semantics
    parallel_safe: bool = True
    #: chunk size the module prefers (``None`` = scheduler default)
    preferred_chunk_size: int | None = None

    def __init__(self, name: str):
        self.name = name
        self.stats = ModuleStats()
        self.quarantine: list[QuarantinedRecord] = []
        self._lock = threading.RLock()
        self._tls = threading.local()
        # Optional repro.obs.Observability hub (attached by the compiler).
        self.obs = None

    @abstractmethod
    def _run(self, value: Any) -> Any:
        """Implementation hook: process one input."""

    def run(self, value: Any) -> Any:
        """Process one input, updating stats; wraps failures uniformly."""
        started = time.perf_counter()
        with self._lock:
            self.stats.invocations += 1
        try:
            return self._run(value)
        except Exception as error:
            with self._lock:
                self.stats.failures += 1
            if isinstance(error, ModuleExecutionError):
                raise
            raise ModuleExecutionError(self.name, value, error) from error
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.stats.total_seconds += elapsed

    def apply_chunk(self, chunk: list[Any]) -> ChunkOutcome:
        """Process one record chunk for the parallel scheduler.

        Only meaningful when ``chunk_capable`` is true.  Implementations
        must route failed records through :meth:`quarantine_record` inside
        :meth:`collecting_quarantine` (so isolation is returned, not applied
        to shared state) and must not touch ``stats`` directly — the
        scheduler merges invocations, quarantine and degraded counts in
        deterministic chunk order.
        """
        raise NotImplementedError(f"module {self.name!r} is not chunk-capable")

    @contextmanager
    def collecting_quarantine(self) -> Iterator[list[QuarantinedRecord]]:
        """Redirect this thread's quarantined records into a local bucket.

        Used by :meth:`apply_chunk`: each worker thread collects its own
        chunk's casualties so the scheduler can merge them in chunk order.
        """
        bucket: list[QuarantinedRecord] = []
        self._tls.bucket = bucket
        try:
            yield bucket
        finally:
            self._tls.bucket = None

    def quarantine_record(self, record: Any, error: BaseException | str) -> None:
        """Isolate one failed record instead of propagating its error."""
        entry = QuarantinedRecord(record, self.name, str(error))
        if self.obs is not None:
            self.obs.metrics.counter("module.quarantined").inc()
        bucket = getattr(self._tls, "bucket", None)
        if bucket is not None:
            bucket.append(entry)
            return
        with self._lock:
            self.stats.quarantined += 1
            self.quarantine.append(entry)

    def drain_quarantine(self) -> list[QuarantinedRecord]:
        """Take (and clear) quarantined records from this module and its children.

        Wrapper modules expose their wrapped modules under conventional
        attribute names (see :meth:`_children`); the plan executor drains
        the whole tree after each operator.
        """
        with self._lock:
            drained = list(self.quarantine)
            self.quarantine.clear()
        for _, child in self._children():
            drained.extend(child.drain_quarantine())
        return drained

    def _children(self) -> Iterator[tuple[str, "Module"]]:
        """The wrapped modules, each once, under the name that holds them.

        The one module-tree walker: quarantine draining, prefetch
        clean-up, configuration identity, the degraded count and the
        parallel-safety check all recurse through it.  Children live under
        the conventional attributes ``inner``, ``stage``, ``fallback`` and
        ``teacher``, or as the ``tagger`` of a ``tagger_holder`` (the
        per-phrase tagger a name-extraction closure calls, which the
        simulator may swap after compilation).
        """
        for attribute in ("inner", "stage", "fallback", "teacher"):
            child = getattr(self, attribute, None)
            if isinstance(child, Module):
                yield attribute, child
        tagger = getattr(self, "tagger_holder", {}).get("tagger")
        if isinstance(tagger, Module):
            yield "tagger", tagger

    def drop_prefetched(self) -> None:
        """Forget what ``prefetch`` left on this thread, here and below.

        A module's ``prefetch`` may keep per-record work for the per-item
        calls of the same chunk (the LLM module keeps the prompts it
        rendered and the answers it paid for).  :meth:`apply_chunk`
        implementations that prefetch call this when the chunk ends — also
        when it raises — so nothing a chunk prepared outlives it.
        """
        for _, child in self._children():
            child.drop_prefetched()

    def config_identity(self) -> dict:
        """JSON-safe identity of this module's *configuration*.

        Feeds :meth:`PhysicalPlan.fingerprint`, so checkpoint resume can
        refuse a journal written under a different prompt template, example
        set or wrapper stack.  Must exclude mutable run state (counters,
        caches, generated code revisions): the fingerprint of a recompiled
        plan has to match the original byte for byte.  Wrapped children are
        included via the same conventional attributes
        :meth:`drain_quarantine` walks.
        """
        identity: dict = {"type": self.module_type, "name": self.name}
        for attribute, child in self._children():
            identity[attribute] = child.config_identity()
        return identity

    def describe(self) -> str:
        """Short description for plans and the UI."""
        return f"{self.name} <{self.module_type}>"

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"<{type(self).__name__} {self.name!r}>"
