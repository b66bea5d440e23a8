"""Tests for graceful degradation during plan execution.

Record-level isolation (ErrorPolicy), quarantine plumbing through
RunReport, and the full ER pipeline surviving a 20% transient-failure
chaos schedule without losing more than the quarantined records.
"""

from __future__ import annotations

import pytest

from repro.core.modules.base import ErrorPolicy, ModuleExecutionError
from repro.core.modules.custom import CustomModule
from repro.core.modules.mapping import MapModule
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.resilience import Deadline, RetryPolicy, VirtualClock
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples


def flaky(poison: set) -> CustomModule:
    """An item module that raises on any value in ``poison``."""

    def fn(value):
        if value in poison:
            raise ValueError(f"poisoned: {value!r}")
        return value * 10

    return CustomModule("flaky", fn)


class TestMapModuleErrorPolicy:
    def test_fail_policy_aborts(self):
        mapper = MapModule("m", flaky({2}), error_policy=ErrorPolicy.FAIL)
        with pytest.raises(ModuleExecutionError):
            mapper.run([1, 2, 3])

    def test_skip_record_quarantines_and_continues(self):
        mapper = MapModule("m", flaky({2}), error_policy=ErrorPolicy.SKIP_RECORD)
        assert mapper.run([1, 2, 3]) == [10, 30]
        drained = mapper.drain_quarantine()
        assert len(drained) == 1
        assert drained[0].record == 2
        assert "poisoned" in drained[0].error
        assert mapper.stats.quarantined == 1

    def test_drain_clears_quarantine(self):
        mapper = MapModule("m", flaky({2}), error_policy=ErrorPolicy.SKIP_RECORD)
        mapper.run([1, 2])
        assert mapper.drain_quarantine()
        assert mapper.drain_quarantine() == []

    def test_degrade_without_fallback_quarantines(self):
        mapper = MapModule("m", flaky({2}), error_policy=ErrorPolicy.DEGRADE)
        assert mapper.run([1, 2, 3]) == [10, 30]
        assert len(mapper.drain_quarantine()) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MapModule("m", flaky(set()), error_policy="explode")


def make_chaos_system(rate: float, seed=7, outage=None, max_retries=3):
    """A LinguaManga system whose provider misbehaves on a seeded schedule."""
    clock = VirtualClock()
    faults = [FaultSpec(kind=FaultKind.TRANSIENT, rate=rate)]
    if outage is not None:
        start, end = outage
        faults.append(FaultSpec(kind=FaultKind.OUTAGE, start=start, end=end))
    chaos = ChaosProvider(SimulatedProvider(), faults, seed=seed, clock=clock)
    service = LLMService(
        chaos,
        retry=RetryPolicy(max_retries=max_retries, backoff_seconds=0.1),
        deadline=Deadline(30.0),
        clock=clock,
    )
    return LinguaManga(service=service)


def er_pipeline(dataset, error_policy="skip_record"):
    return get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4), error_policy=error_policy
    )


def match_counters(report):
    """Resilience counters of the (auto-named) matcher operator."""
    return next(
        value
        for key, value in report.resilience.items()
        if key.startswith("match_entities")
    )


class TestRunReportResilience:
    def test_clean_run_is_not_partial(self, system):
        dataset = generate_er_dataset("beer", n_entities=20)
        report = system.run(
            er_pipeline(dataset), {"pairs": pairs_as_inputs(dataset.test[:10])}
        )
        assert report.partial is False
        assert report.quarantine == []
        assert match_counters(report) is not None

    def test_retries_counted_per_operator(self):
        system = make_chaos_system(rate=0.3)
        dataset = generate_er_dataset("beer", n_entities=20)
        report = system.run(
            er_pipeline(dataset), {"pairs": pairs_as_inputs(dataset.test[:10])}
        )
        assert match_counters(report).llm_retries > 0

    def test_partial_report_text_mentions_quarantine(self):
        system = make_chaos_system(rate=0.9, max_retries=0)
        dataset = generate_er_dataset("beer", n_entities=20)
        report = system.run(
            er_pipeline(dataset), {"pairs": pairs_as_inputs(dataset.test[:10])}
        )
        assert report.partial is True
        assert "PARTIAL" in report.to_text()
        assert "resilience" in report.to_text()

    def test_fail_policy_still_aborts(self):
        system = make_chaos_system(rate=1.0, max_retries=0)
        dataset = generate_er_dataset("beer", n_entities=20)
        with pytest.raises(Exception):
            system.run(
                er_pipeline(dataset, error_policy="fail"),
                {"pairs": pairs_as_inputs(dataset.test[:5])},
            )


class TestERUnderChaos:
    """Acceptance criterion: 20% transient chaos, >=95% records processed."""

    def run_er(self, seed=7):
        system = make_chaos_system(rate=0.2, seed=seed)
        dataset = generate_er_dataset("beer")
        pairs = pairs_as_inputs(dataset.test)
        report = system.run(er_pipeline(dataset), {"pairs": pairs})
        return report, len(pairs)

    def test_completes_with_partial_flag_consistent(self):
        report, total = self.run_er()
        verdicts = next(iter(report.outputs.values()))
        assert report.partial == bool(report.quarantine)
        # Conservation: every input pair is either answered or quarantined.
        assert len(verdicts) + len(report.quarantine) == total

    def test_at_least_95_percent_processed(self):
        report, total = self.run_er()
        verdicts = next(iter(report.outputs.values()))
        assert len(verdicts) >= 0.95 * total

    def test_run_is_deterministic(self):
        first, _ = self.run_er(seed=13)
        second, _ = self.run_er(seed=13)
        assert next(iter(first.outputs.values())) == next(
            iter(second.outputs.values())
        )
        assert [q.record for q in first.quarantine] == [
            q.record for q in second.quarantine
        ]

    def test_quarantine_names_operator_and_error(self):
        system = make_chaos_system(rate=0.9, max_retries=0)
        dataset = generate_er_dataset("beer", n_entities=20)
        report = system.run(
            er_pipeline(dataset), {"pairs": pairs_as_inputs(dataset.test[:10])}
        )
        assert report.quarantine, "expected quarantined records under heavy chaos"
        entry = report.quarantine[0]
        assert entry.module_name
        assert entry.error
        assert "left" in entry.record
