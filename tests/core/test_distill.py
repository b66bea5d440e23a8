"""The optimizer's simulator: the audited distillation router (paper 3.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.modules.base import Module
from repro.core.modules.custom import CustomModule
from repro.core.optimizer.distill import DistillationRouter
from repro.llm.cache import PROVENANCE_DISTILLED
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import LLMRequest, SimulatedProvider
from repro.llm.service import LLMService


class SignTeacher(Module):
    """Deterministic teacher: ``value > 0``; can drift or go down."""

    module_type = "custom"

    def __init__(self, flip_after: int | None = None):
        super().__init__("sign_teacher")
        self.calls = 0
        self.flip_after = flip_after
        self.down = False

    def _run(self, value):
        if self.down:
            raise RuntimeError("teacher unavailable")
        self.calls += 1
        label = value > 0
        if self.flip_after is not None and self.calls > self.flip_after:
            label = not label  # concept drift: verdicts invert
        return bool(label)


class FlakyTeacher(Module):
    """Teacher that really consults a (chaos-injected) provider."""

    module_type = "llm"

    def __init__(self, chaos: ChaosProvider):
        super().__init__("flaky_teacher")
        self.chaos = chaos

    def _run(self, value):
        # The provider round trip can raise injected faults; the label
        # itself is deterministic so the student has something learnable.
        self.chaos.complete(LLMRequest(prompt=f"sign of {value}", max_tokens=8))
        return value > 0


def vectorize(value) -> np.ndarray:
    return np.array([float(value), 1.0])


def stream(n: int) -> list[float]:
    """Separable, alternating-sign inputs with varied magnitude."""
    return [(1.0 + index % 5) * (1 if index % 2 == 0 else -1) for index in range(n)]


def make_router(teacher, service=None, **overrides) -> DistillationRouter:
    service = service or LLMService(SimulatedProvider())
    config = dict(
        featurize=str,
        vectorize=vectorize,
        min_samples=20,
        accuracy_bar=0.9,
        confidence_threshold=0.6,
        refit_every=10,
    )
    config.update(overrides)
    return DistillationRouter("router", teacher, service, **config)


class TestPromotion:
    def test_warmup_goes_entirely_to_the_teacher(self):
        teacher = SignTeacher()
        router = make_router(teacher)
        for value in stream(19):
            router.run(value)
        assert teacher.calls == 19
        assert not router.promoted
        assert router.distill_stats.student_calls == 0

    def test_promotes_once_holdout_accuracy_clears_bar(self):
        router = make_router(SignTeacher())
        for value in stream(40):
            router.run(value)
        assert router.promoted
        assert router._holdout_accuracy >= 0.9
        assert router.distill_stats.promotions == 1

    def test_promoted_student_answers_and_is_ledgered(self):
        service = LLMService(SimulatedProvider())
        teacher = SignTeacher()
        router = make_router(teacher, service=service)
        values = stream(120)
        outputs = [router.run(value) for value in values]
        assert outputs == [value > 0 for value in values]  # quality held
        stats = router.distill_stats
        assert stats.student_calls > 0
        assert teacher.calls < len(values)  # the provider bill dropped
        # Every locally answered record is on the service ledger with
        # ``distilled`` provenance, zero cost, cached outcome.
        distilled = [r for r in service.records if r.provenance == PROVENANCE_DISTILLED]
        assert len(distilled) == stats.student_calls
        assert all(r.cost == 0.0 and r.cached for r in distilled)
        assert service.usage().distilled_calls == stats.student_calls

    def test_audits_sample_the_confident_stream(self):
        router = make_router(SignTeacher())
        for value in stream(120):
            router.run(value)
        assert router.distill_stats.audits > 0
        assert router.distill_stats.audit_disagreements == 0
        assert router.promoted  # perfect agreement never demotes

    def test_rejects_unknown_student(self):
        with pytest.raises(ValueError):
            make_router(SignTeacher(), student="svm")

    def test_rejects_bad_accuracy_bar(self):
        with pytest.raises(ValueError):
            make_router(SignTeacher(), accuracy_bar=0.0)


class TestDemotion:
    def test_drifted_teacher_demotes_the_student(self):
        # Teacher verdicts invert after call 30: audits start disagreeing
        # and rolling agreement falls below the demotion bar.
        teacher = SignTeacher(flip_after=30)
        router = make_router(teacher)
        for value in stream(400):
            router.run(value)
        assert router.distill_stats.audit_disagreements > 0
        assert router.distill_stats.demotions >= 1

    def test_demotion_resets_promotion_state(self):
        router = make_router(SignTeacher())
        for value in stream(40):
            router.run(value)
        assert router.promoted
        router._demote()
        assert not router.promoted
        assert router._holdout_accuracy == 0.0
        assert router.distill_stats.demotions == 1


class TestTeacherOutage:
    def test_outage_before_any_model_propagates(self):
        teacher = SignTeacher()
        teacher.down = True
        router = make_router(teacher)
        with pytest.raises(Exception):
            router.run(1.0)

    def test_trained_student_degrades_instead_of_failing(self):
        service = LLMService(SimulatedProvider())
        teacher = SignTeacher()
        router = make_router(teacher, service=service)
        for value in stream(40):
            router.run(value)
        assert router.promoted
        teacher.down = True
        router.confidence_threshold = 2.0  # force the deferral path
        answer = router.run(4.0)
        assert answer is True  # the student's learned verdict
        assert router.distill_stats.degraded_answers == 1
        degraded = [r for r in service.records if r.skill == "distilled-degraded"]
        assert len(degraded) == 1
        assert degraded[0].provenance == PROVENANCE_DISTILLED

    def test_audit_the_teacher_never_answered_is_not_an_audit(self):
        # Regression: on an outage _teach hands back the student's own
        # label, and the audit compared it with itself — 20 agreements
        # nobody gave refilled the demotion window.
        service = LLMService(SimulatedProvider())
        teacher = SignTeacher()
        router = make_router(teacher, service=service)
        for value in stream(40):
            router.run(value)
        assert router.promoted
        audits_before = router.distill_stats.audits
        window_before = list(router._audit_results)
        teacher.down = True
        values = stream(40)
        assert [router.run(value) for value in values] == [v > 0 for v in values]
        # Every 10th confident record is an audit the teacher cannot answer.
        assert router.distill_stats.degraded_answers == 4
        assert router.distill_stats.audits == audits_before
        assert list(router._audit_results) == window_before
        degraded = [r for r in service.records if r.skill == "distilled-degraded"]
        assert len(degraded) == 4


class TestUnderChaosFaults:
    def test_promotes_and_keeps_routing_despite_injected_faults(self):
        chaos = ChaosProvider(
            SimulatedProvider(),
            [FaultSpec(kind=FaultKind.TRANSIENT, rate=0.25)],
            seed=9,
        )
        service = LLMService(SimulatedProvider())
        router = make_router(FlakyTeacher(chaos), service=service)
        handled = faults_seen = 0
        # Seven magnitudes: a period of 14 records, so the every-10th audits
        # rotate over the prompts rather than landing on one.
        values = [(1.0 + i % 7) * (1 if i % 2 == 0 else -1) for i in range(200)]
        for value in values:
            try:
                assert router.run(value) == (value > 0)
                handled += 1
            except Exception:
                faults_seen += 1  # pre-model teacher faults surface
        assert chaos.injected[FaultKind.TRANSIENT] > 0
        assert router.promoted
        assert router.distill_stats.student_calls > 0
        assert handled > faults_seen
        # Post-promotion provider faults become degraded student answers,
        # not run failures.
        assert router.distill_stats.degraded_answers > 0

    def test_describe_reports_routing_state(self):
        router = make_router(SignTeacher())
        assert "shadow-training" in router.describe()
        for value in stream(40):
            router.run(value)
        assert "promoted" in router.describe()


class TestHashedTextStudent:
    """The default student: hashed bag-of-words over ``featurize(value)``."""

    def inputs(self, n: int) -> list[str]:
        words = ["ab", "a very long sentence indeed", "xy", "tiny",
                 "another extremely long input string", "ok"]
        return [words[i % len(words)] + f" {i % 7}" for i in range(n)]

    def length_teacher(self) -> CustomModule:
        return CustomModule("teacher", lambda v: "long" if len(v) > 10 else "short")

    def test_student_agrees_with_teacher(self):
        router = DistillationRouter(
            "router",
            self.length_teacher(),
            LLMService(SimulatedProvider()),
            min_samples=40,
            confidence_threshold=0.6,
        )
        for value in self.inputs(200):
            router.run(value)
        assert router.promoted and router.distill_stats.student_calls > 0
        reference = self.length_teacher()
        test_inputs = self.inputs(60)
        agreement = sum(
            1 for v in test_inputs if router.run(v) == reference.run(v)
        ) / len(test_inputs)
        assert agreement > 0.9

    def test_single_label_never_takes_over(self):
        router = DistillationRouter(
            "router",
            CustomModule("const", lambda v: "same"),
            LLMService(SimulatedProvider()),
            min_samples=10,
        )
        for value in self.inputs(50):
            router.run(value)
        assert not router.promoted  # needs two classes to fit
        assert router.distill_stats.teacher_calls == 50
