"""The optimizer's simulator: one student take-over module (paper section 3.2).

"A simulator automatically generates a more efficient and equally effective
alternative to a given module that already functions well. ... Because each
module is treated as a black-box function, an ML-based simulator can
replicate the target module through supervised learning.  The target module
will function as intended during initialization, and a control logic will
decide when the simulated version should take over, such as after achieving
the desired accuracy or reaching a certain level of confidence."

:class:`DistillationRouter` is that simulator, and the call-avoidance tier
behind the prompt cache.  Caching (:mod:`repro.llm.cache`) only avoids paying
for a prompt the system has *already* paid for; the router goes further: as
teacher answers accumulate, a cheap local classifier (:mod:`repro.ml`) is
shadow-trained on ``(featurized input, teacher label)`` pairs, and once its
held-out accuracy clears a configurable bar the router answers
high-confidence records locally — reserving provider calls for the
low-confidence tail, which keeps training the student (the paper's
"continuously monitors the real data flow").

- **ledger provenance** — every locally answered record is written to the
  LLM service ledger via :meth:`LLMService.record_distilled` with
  provenance ``distilled`` and zero cost, so run reports account for every
  answered prompt and the savings are auditable, not inferred;
- **audited promotion** — after promotion every 10th student-confident
  record is *also* sent to the teacher; once 5 audits exist, agreement
  below 0.7 over the last 20 demotes the student back to shadow
  training.  Promotion is therefore reversible when the data distribution
  drifts (or the provider's answers change under injected faults).

Like every online learner in this codebase the router is
``parallel_safe = False``: its predictions depend on how many samples
arrived before each input, so the scheduler runs it whole-input sequential
and the determinism contract is preserved by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.core.modules.base import Module
from repro.llm.service import LLMService
from repro.ml.features import HashingVectorizer
from repro.ml.forest import RandomForest
from repro.ml.logistic import SoftmaxRegression

__all__ = ["DistillStats", "DistillationRouter"]

#: Audit control after promotion: every ``_AUDIT_EVERY``-th confident
#: record also goes to the teacher; once ``_MIN_AUDITS`` audits exist,
#: agreement below ``_DEMOTE_BELOW`` over the last ``_AUDIT_WINDOW``
#: demotes the student.
_AUDIT_EVERY = 10
_AUDIT_WINDOW = 20
_MIN_AUDITS = 5
_DEMOTE_BELOW = 0.7


@dataclass
class DistillStats:
    """Counters for the routing control logic."""

    teacher_calls: int = 0
    student_calls: int = 0
    deferrals: int = 0  # student consulted but not confident enough
    refits: int = 0
    audits: int = 0
    audit_disagreements: int = 0
    promotions: int = 0
    demotions: int = 0
    degraded_answers: int = 0  # teacher unreachable, student answered anyway

    @property
    def total(self) -> int:
        """All handled inputs."""
        return self.teacher_calls + self.student_calls

    def savings(self) -> float:
        """Fraction of inputs the teacher never saw."""
        if self.total == 0:
            return 0.0
        return self.student_calls / self.total

    def to_text(self) -> str:
        """One-line rendering."""
        text = (
            f"teacher={self.teacher_calls} student={self.student_calls} "
            f"deferrals={self.deferrals} refits={self.refits} "
            f"audits={self.audits} savings={self.savings():.0%}"
        )
        if self.promotions or self.demotions:
            text += f" promotions={self.promotions} demotions={self.demotions}"
        if self.degraded_answers:
            text += f" degraded={self.degraded_answers}"
        return text


class _ForestStudent:
    """Adapter giving :class:`RandomForest` the softmax student's interface.

    The forest is binary (0/1); labels are mapped through a fitted
    two-class vocabulary.  ``predict_with_confidence`` reports the averaged
    tree probability of the winning class.
    """

    def __init__(self, seed: int = 0):
        self._forest = RandomForest(seed=seed)
        self._labels: list[Hashable] = []

    def fit(self, X: np.ndarray, y: Sequence[Hashable]) -> "_ForestStudent":
        self._labels = sorted(set(y), key=repr)
        if len(self._labels) > 2:
            raise ValueError(
                "student='forest' supports binary tasks only; "
                f"saw {len(self._labels)} classes (use student='logistic')"
            )
        index = {label: i for i, label in enumerate(self._labels)}
        self._forest.fit(X, [index[label] for label in y])
        return self

    def predict(self, X: np.ndarray) -> list[Hashable]:
        return [label for label, _ in self.predict_with_confidence(X)]

    def predict_with_confidence(
        self, X: np.ndarray
    ) -> list[tuple[Hashable, float]]:
        if len(self._labels) == 1:
            return [(self._labels[0], 1.0)] * len(np.atleast_2d(X))
        out = []
        for p in self._forest.predict_proba(X):
            winner = 1 if p >= 0.5 else 0
            out.append((self._labels[winner], float(max(p, 1.0 - p))))
        return out


class DistillationRouter(Module):
    """Teacher module + shadow-trained student with audited cost routing.

    Parameters
    ----------
    teacher:
        The expensive module being distilled (typically an LLM module).
    service:
        The LLM service whose ledger receives ``distilled`` provenance
        records for every locally answered input.
    featurize:
        Maps an input value to the text the student model sees.
    vectorize:
        Optional direct feature map ``value -> np.ndarray``, replacing the
        hashed-text pipeline entirely.  Task-aware features (e.g. a
        :class:`repro.ml.features.PairFeatureExtractor` for record pairs)
        give the student far better calibration than bag-of-hashed-tokens.
    student:
        ``"logistic"`` (softmax regression, any label set) or ``"forest"``
        (random forest, binary tasks).
    min_samples:
        Warm-up length: the student never answers before this many
        teacher-labelled samples exist.
    accuracy_bar:
        Required held-out accuracy (trailing 20% of the shadow set) before
        the student is promoted.
    confidence_threshold:
        Per-input confidence the promoted student needs to answer locally.
    refit_every:
        Retrain cadence (in new teacher-labelled samples).
    """

    module_type = "decorated"
    # Online learner: predictions depend on how many samples arrived before
    # each input, so record order must be preserved — never parallelise.
    parallel_safe = False

    def __init__(
        self,
        name: str,
        teacher: Module,
        service: LLMService,
        featurize: Callable[[Any], str] = str,
        vectorize: Callable[[Any], np.ndarray] | None = None,
        student: str = "logistic",
        min_samples: int = 40,
        accuracy_bar: float = 0.9,
        confidence_threshold: float = 0.85,
        refit_every: int = 25,
        purpose: str | None = None,
    ):
        super().__init__(name)
        if student not in ("logistic", "forest"):
            raise ValueError("student must be 'logistic' or 'forest'")
        if not 0.0 < accuracy_bar <= 1.0:
            raise ValueError("accuracy_bar must be in (0, 1]")
        self.teacher = teacher
        self.service = service
        self.featurize = featurize
        self.student = student
        self.min_samples = min_samples
        self.accuracy_bar = accuracy_bar
        self.confidence_threshold = confidence_threshold
        self.refit_every = max(1, refit_every)
        self.purpose = purpose or name
        self.distill_stats = DistillStats()
        self._vectorize = vectorize
        self._vectorizer = HashingVectorizer(n_features=1024)
        self._X: list[np.ndarray] = []
        self._y: list[Hashable] = []
        self._model: SoftmaxRegression | _ForestStudent | None = None
        self._pending_since_fit = 0
        self._holdout_accuracy = 0.0
        self._promoted = False
        self._since_audit = 0
        self._audit_results: deque[bool] = deque(maxlen=_AUDIT_WINDOW)

    def _bump(self, name: str) -> None:
        """Mirror one router event into the service's metrics, when attached."""
        obs = getattr(self.service, "obs", None)
        if obs is not None:
            obs.metrics.counter(f"distill.{name}").inc()

    # -- training -------------------------------------------------------------

    def _new_model(self) -> SoftmaxRegression | _ForestStudent:
        if self.student == "forest":
            return _ForestStudent(seed=0)
        # Lightly regularised so the student's confidence is sharp enough
        # to clear the routing threshold once it genuinely knows the answer.
        return SoftmaxRegression(epochs=300, lr=1.0, l2=1e-4)

    def _record_sample(self, vector: np.ndarray, label: Hashable) -> None:
        self._X.append(vector)
        self._y.append(label)
        self._pending_since_fit += 1
        ready = len(self._y) >= self.min_samples
        due = self._model is None or self._pending_since_fit >= self.refit_every
        if ready and due and len(set(map(repr, self._y))) >= 2:
            self._refit()

    def _refit(self) -> None:
        X = np.stack(self._X)
        # Held-out accuracy: train on the first 80%, measure on the rest.
        cut = max(int(len(self._y) * 0.8), 1)
        if cut < len(self._y):
            model = self._new_model().fit(X[:cut], self._y[:cut])
            predictions = model.predict(X[cut:])
            matches = sum(1 for p, t in zip(predictions, self._y[cut:]) if p == t)
            self._holdout_accuracy = matches / (len(self._y) - cut)
        self._model = self._new_model().fit(X, self._y)
        self._pending_since_fit = 0
        self.distill_stats.refits += 1
        self._bump("refits")
        if not self._promoted and self._holdout_accuracy >= self.accuracy_bar:
            self._promoted = True
            self._audit_results.clear()
            self.distill_stats.promotions += 1
            self._bump("promotions")

    # -- control logic -------------------------------------------------------

    @property
    def promoted(self) -> bool:
        """Whether the student currently answers high-confidence records."""
        return self._promoted and self._model is not None

    def _book_audit(self, agreed: bool) -> None:
        self.distill_stats.audits += 1
        self._bump("audits")
        if not agreed:
            self.distill_stats.audit_disagreements += 1
        self._audit_results.append(agreed)
        if (
            self._promoted
            and len(self._audit_results) >= _MIN_AUDITS
            and sum(self._audit_results) / len(self._audit_results) < _DEMOTE_BELOW
        ):
            self._demote()

    def _demote(self) -> None:
        self._promoted = False
        self._holdout_accuracy = 0.0
        self._audit_results.clear()
        # Force a fresh refit (and a fresh promotion decision) only after
        # refit_every more teacher-labelled samples arrive.
        self._pending_since_fit = 0
        self.distill_stats.demotions += 1
        self._bump("demotions")

    def _prompt_for(self, value: Any) -> str:
        build_prompt = getattr(self.teacher, "build_prompt", None)
        if callable(build_prompt):
            try:
                return build_prompt(value)
            except TypeError:
                pass
        return self.featurize(value)

    def _teach(self, value: Any, vector: np.ndarray) -> tuple[Any, bool]:
        """Ask the teacher: ``(label, True)``, or on an outage the trained
        student's ``(label, False)``."""
        try:
            label = self.teacher.run(value)
        except Exception:
            # Teacher unreachable (an outage).
            # A trained student is the learned degraded path: answer with
            # its best guess, confidence threshold waived.
            if self._model is None:
                raise
            label, _ = self._model.predict_with_confidence(vector.reshape(1, -1))[0]
            self.distill_stats.degraded_answers += 1
            self._bump("degraded_answers")
            self.service.record_distilled(
                self._prompt_for(value),
                str(label),
                purpose=self.purpose,
                skill="distilled-degraded",
            )
            return label, False
        self.distill_stats.teacher_calls += 1
        self._bump("teacher_calls")
        self._record_sample(vector, label)
        return label, True

    def _vector_for(self, value: Any) -> np.ndarray:
        if self._vectorize is not None:
            return np.asarray(self._vectorize(value), dtype=np.float64)
        return self._vectorizer.transform_one(self.featurize(value))

    def _run(self, value: Any) -> Any:
        vector = self._vector_for(value)
        if self.promoted:
            assert self._model is not None
            label, confidence = self._model.predict_with_confidence(
                vector.reshape(1, -1)
            )[0]
            if confidence >= self.confidence_threshold:
                self._since_audit += 1
                if self._since_audit >= _AUDIT_EVERY:
                    # Audit: pay the teacher for this one and compare.  An
                    # audit the teacher never answered is not an audit.
                    self._since_audit = 0
                    teacher_label, answered = self._teach(value, vector)
                    if answered:
                        self._book_audit(teacher_label == label)
                    return teacher_label
                self.distill_stats.student_calls += 1
                self._bump("student_calls")
                self.service.record_distilled(
                    self._prompt_for(value), str(label), purpose=self.purpose
                )
                return label
            self.distill_stats.deferrals += 1
            self._bump("deferrals")
        return self._teach(value, vector)[0]

    def describe(self) -> str:
        """Teacher plus routing state."""
        state = "promoted" if self.promoted else "shadow-training"
        return (
            f"{self.name} <decorated: distill({self.teacher.name}, "
            f"{self.student}), {state}, {self.distill_stats.to_text()}>"
        )
