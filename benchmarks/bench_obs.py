"""Observability — attached or not, the run is the same run.

The acceptance bar from the observability PR: with the full
``Observability`` stack attached (structured tracer + metrics registry +
run profiler) the ER demo app must behave exactly as if the layer did not
exist — same golden F1, same provider calls.  Both wall clocks are printed for the
record; a run of ~120 ms times the simulated provider, so their ratio is
noise and nothing is asserted on it (layered wall-clock numbers come from
``python -m benchmarks.e2e``).
"""

from __future__ import annotations

import time

from repro.core.runtime.system import LinguaManga
from repro.datasets.entity_resolution import generate_er_dataset
from repro.obs import Observability
from repro.tasks.entity_resolution import run_lingua_manga_er

from _harness import emit, emit_json

GOLDEN_ER_F1 = 0.9090909090909091
REPEATS = 3


def _time_er(dataset, obs_factory) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        system = LinguaManga(obs=obs_factory())
        started = time.perf_counter()
        result = run_lingua_manga_er(system, dataset)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_observability_changes_nothing():
    dataset = generate_er_dataset("beer")
    off_seconds, off_result = _time_er(dataset, lambda: None)
    on_seconds, on_result = _time_er(dataset, Observability)

    # Observability never changes behaviour, only watches it.
    assert on_result.f1 == off_result.f1 == GOLDEN_ER_F1
    assert on_result.llm_calls == off_result.llm_calls

    emit(
        "obs",
        "observability (ER app, beer, best of "
        f"{REPEATS} runs):\n"
        f"obs off {off_seconds * 1000:.1f}ms, on {on_seconds * 1000:.1f}ms, "
        f"{on_result.llm_calls} provider calls and F1 {on_result.f1:.4f} either way",
    )
    emit_json(
        "obs",
        [
            {
                "name": "obs off",
                "wall_seconds": off_seconds,
                "provider_calls": off_result.llm_calls,
            },
            {
                "name": "obs on",
                "wall_seconds": on_seconds,
                "provider_calls": on_result.llm_calls,
            },
        ],
    )
