"""Classifier-cascade module: cheap rules first, LLM only for the unsure band.

The curation templates (quality filtering, decontamination) are cost
cascades in the Lingua Manga sense: a free, deterministic rule rung answers
the easy majority, and only documents inside the rule's uncertainty band
escalate to the LLM teacher.  This module implements that routing at the
item level; wrapped in a :class:`~repro.core.modules.mapping.MapModule` it
inherits chunking, parallelism and record-level error isolation.

Contract details that keep the serving guarantees intact:

- **Determinism**: the rule is a pure function and the escalation decision
  depends only on the item, so worker count and chunk boundaries cannot
  change which items reach the teacher — warm reruns replay bit-identically.
- **Prefetch**: :meth:`prefetch` filters the chunk down to the items that
  *will* escalate and warms only those prompts, so a chunk costs one
  provider round trip for exactly the escalated subset; the scores it
  computed are handed to the per-item calls, so the rule runs once an item.
- **Identity**: thresholds and the rule tag are part of
  :meth:`config_identity`; the teacher is walked through the conventional
  ``teacher`` attribute (checkpoint fingerprints, quarantine draining).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.modules.base import Module

__all__ = ["CascadeModule"]


class CascadeModule(Module):
    """Route one item through ``rule`` and, if unsure, through ``teacher``.

    Parameters
    ----------
    rule:
        Pure function ``item -> score`` in ``[0, 1]``.
    teacher:
        Item-level module (typically an LLM prompt) returning the boolean
        verdict for escalated items.
    lower, upper:
        Confidence band: ``score < lower`` answers ``False`` and
        ``score >= upper`` answers ``True`` without consulting the teacher;
        anything in between escalates.
    rule_tag:
        Version tag of the rule implementation, folded into the module's
        config identity so checkpoint resume notices rule changes.
    out_key:
        When set and the item is a dict, the verdict is stored under this
        key on a copy of the item (document-enrichment protocol) instead of
        being returned bare.
    """

    module_type = "decorated"

    def __init__(
        self,
        name: str,
        rule: Callable[[Any], float],
        teacher: Module,
        lower: float,
        upper: float,
        rule_tag: str = "rules-v1",
        out_key: str | None = None,
    ):
        if not 0.0 <= lower <= upper <= 1.0:
            raise ValueError(f"need 0 <= lower <= upper <= 1, got {lower}, {upper}")
        super().__init__(name)
        self.rule = rule
        self.teacher = teacher
        self.lower = lower
        self.upper = upper
        self.rule_tag = rule_tag
        self.out_key = out_key
        #: items answered by the rule rung / escalated to the teacher
        self.rule_decisions = 0
        self.escalations = 0

    def _score(self, value: Any) -> float:
        """The rule's score: prefetch's, once, else scored here.

        Same hand-off as :meth:`LLMModule._first_prompt`: keyed on the
        value object (pinned by its entry), taken rather than read, so any
        other object and any second run score afresh.
        """
        scored = getattr(self._tls, "scored", None)
        entry = scored.pop(id(value), None) if scored else None
        return self.rule(value) if entry is None else entry[1]

    def _run(self, value: Any) -> Any:
        score = self._score(value)
        if score < self.lower:
            verdict: Any = False
            with self._lock:
                self.rule_decisions += 1
        elif score >= self.upper:
            verdict = True
            with self._lock:
                self.rule_decisions += 1
        else:
            with self._lock:
                self.escalations += 1
            verdict = self.teacher.run(value)
        if self.out_key is not None and isinstance(value, dict):
            out = dict(value)
            out[self.out_key] = bool(verdict)
            return out
        return verdict

    def prefetch(self, values: list[Any]) -> int:
        """Warm the teacher's cache for exactly the items that will escalate.

        Each item is scored once: the scores stay on this thread for the
        per-item calls of the same chunk (see :meth:`_score`) until
        :meth:`drop_prefetched`.  An item the rule cannot score is left
        out — ``run`` scores it again and raises inside the caller's
        error policy.
        """
        scored: dict[int, tuple[Any, float]] = {}
        escalated = []
        for value in values:
            try:
                score = self.rule(value)
            except Exception:
                continue
            scored[id(value)] = (value, score)
            if self.lower <= score < self.upper:
                escalated.append(value)
        self._tls.scored = scored
        if not escalated:
            return 0
        prefetch = getattr(self.teacher, "prefetch", None)
        if callable(prefetch):
            return prefetch(escalated)
        return 0

    def drop_prefetched(self) -> None:
        """Forget this thread's scores, then the teacher's prefetch."""
        self._tls.scored = None
        super().drop_prefetched()

    def config_identity(self) -> dict:
        identity = super().config_identity()
        identity.update(
            {
                "cascade": {
                    "lower": self.lower,
                    "upper": self.upper,
                    "rule_tag": self.rule_tag,
                    "out_key": self.out_key,
                }
            }
        )
        return identity

    def describe(self) -> str:
        return (
            f"{self.name} <cascade [{self.lower:.2f}, {self.upper:.2f}) -> "
            f"{self.teacher.describe()}>"
        )
