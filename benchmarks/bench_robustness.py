"""Robustness — the ER pipeline under injected provider faults.

Runs the built-in entity-resolution template (``error_policy="skip_record"``)
against a ChaosProvider at increasing transient-failure rates, plus one arm
whose retry budget (1) is too small for its fault rate (40%), so some calls
fail for good.  The resilient executor quarantines what it must
and keeps everything else: completion rate stays high, F1 on the records
that were processed degrades only marginally, and the extra cost shows up
as retries/failed calls rather than lost work.
"""

from __future__ import annotations

import pytest

from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.ml.metrics import f1_score
from repro.resilience import (
    OUTCOME_GAVE_UP,
    OUTCOME_RETRIED,
    OUTCOME_SERVED,
    Deadline,
    RetryPolicy,
)
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples

from _harness import emit, emit_json

# (name, transient fault rate, retry budget).  Faults are rates, not windows
# on the clock: inside an operator every chunk reads operator-entry time, so
# a window cannot open midway through one (DESIGN section 8).
ARMS = (
    ("clean", 0.0, 3),
    ("transient 5%", 0.05, 3),
    ("transient 20%", 0.20, 3),
    ("40%, 1 retry", 0.40, 1),
)


def chaos_system(rate: float, max_retries: int) -> LinguaManga:
    faults = [FaultSpec(kind=FaultKind.TRANSIENT, rate=rate)]
    chaos = ChaosProvider(SimulatedProvider(), faults, seed=2023)
    retry = RetryPolicy(max_retries=max_retries, backoff_seconds=0.5, jitter=0.2)
    service = LLMService(chaos, retry=retry, deadline=Deadline(60.0))
    return LinguaManga(service=service)


def run_arm(rate: float, max_retries: int = 3) -> dict:
    dataset = generate_er_dataset("beer")
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4), error_policy="skip_record"
    )
    system = chaos_system(rate, max_retries)
    pairs = pairs_as_inputs(dataset.test)
    report = system.run(pipeline, {"pairs": pairs})
    verdicts = next(iter(report.outputs.values()))
    # Score F1 on the records that were processed (quarantine is reported,
    # not silently dropped): skip_record preserves the order of survivors.
    quarantined = {id(q.record) for q in report.quarantine}
    y_true = [p.label for pair, p in zip(pairs, dataset.test) if id(pair) not in quarantined]
    predictions = [int(bool(v)) for v in verdicts]
    usage = system.usage()
    # Provider attempts, from the ledger: a paid record made retries + 1.
    paid = (OUTCOME_SERVED, OUTCOME_RETRIED, OUTCOME_GAVE_UP)
    attempts = sum(r.retries + 1 for r in system.service.records if r.outcome in paid)
    return {
        "total": len(pairs),
        "processed": len(verdicts),
        "quarantined": len(report.quarantine),
        "partial": report.partial,
        "f1": 100 * f1_score(y_true, predictions),
        "attempts": attempts,
        "retries": usage.retries,
        "failed": usage.failed_calls,
        "clock": system.service.clock_seconds,
    }


@pytest.fixture(scope="module")
def sweep():
    return {name: run_arm(rate, retries) for name, rate, retries in ARMS}


def _render(rows: dict) -> str:
    lines = [
        f"{'arm':16s} {'total':>6s} {'done':>6s} {'quar':>5s} {'rate':>7s} "
        f"{'F1':>7s} {'attempts':>9s} {'retries':>8s} {'failed':>7s} {'clock_s':>8s}",
    ]
    for name, row in rows.items():
        completion = 100 * row["processed"] / row["total"]
        lines.append(
            f"{name:16s} {row['total']:6d} {row['processed']:6d} "
            f"{row['quarantined']:5d} {completion:6.1f}% {row['f1']:7.2f} "
            f"{row['attempts']:9d} {row['retries']:8d} {row['failed']:7d} "
            f"{row['clock']:8.1f}"
        )
    return "\n".join(lines)


def test_robustness_sweep(sweep):
    emit("robustness", _render(sweep))
    emit_json(
        "robustness",
        [
            {
                "name": name,
                "processed": row["processed"],
                "quarantined": row["quarantined"],
                "f1": row["f1"],
                "provider_calls": row["attempts"],
                "retries": row["retries"],
                "failed_calls": row["failed"],
                "clock_seconds": row["clock"],
            }
            for name, row in sweep.items()
        ],
    )
    clean = sweep["clean"]
    assert clean["quarantined"] == 0 and not clean["partial"]
    for name, row in sweep.items():
        # Conservation: every record is either processed or quarantined.
        assert row["processed"] + row["quarantined"] == row["total"]
        assert row["partial"] == (row["quarantined"] > 0)
    # Acceptance: >=95% of records survive 20% transient chaos.
    chaotic = sweep["transient 20%"]
    assert chaotic["processed"] >= 0.95 * chaotic["total"]
    assert chaotic["retries"] > 0
    # F1 on processed records degrades only marginally vs the clean arm.
    assert chaotic["f1"] >= clean["f1"] - 10
    # The starved arm loses records, not the run.
    starved = sweep["40%, 1 retry"]
    assert 0 < starved["quarantined"] < starved["total"] and starved["partial"]
    assert starved["processed"] >= 0.5 * starved["total"]


def test_sweep_is_deterministic():
    assert run_arm(0.2) == run_arm(0.2)


def test_benchmark_chaos_overhead(benchmark):
    """Time one chaotic run end to end (virtual waits cost no wall-clock)."""
    result = benchmark(lambda: run_arm(0.2)["processed"])
    assert result > 0
