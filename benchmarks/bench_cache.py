"""Multi-tier call avoidance — warm-run savings and distillation economics.

Three claims, measured:

1. **Warm runs re-pay almost nothing.**  Each demo application is run cold
   (fresh persistent cache journal) and then warm (new system, same
   journal).  The exact-match tier answers every repeated prompt, so the
   warm run's provider calls drop by far more than the 50% acceptance bar
   — and the run *outputs* are byte-identical, with only the declared cost
   fields differing.
2. **Distillation cuts the bill on first contact.**  The ER template with
   ``distill=True`` shadow-trains a similarity-feature forest on the
   matcher's own verdicts and routes high-confidence pairs locally; the
   provider-call count and dollar cost drop well below the plain template
   without giving back F1.
3. **The banded Levenshtein is the cheap screen it claims to be.**  With a
   ``max_distance`` budget the O(n·d) diagonal band beats the full O(n·m)
   table by an order of magnitude on long dissimilar strings — that is
   what makes it affordable inside the blocking fallback.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.runtime.system import LinguaManga
from repro.datasets.entity_resolution import generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset
from repro.datasets.names import generate_name_dataset
from repro.tasks.entity_resolution import run_lingua_manga_er
from repro.tasks.imputation import run_hybrid_imputation
from repro.tasks.name_extraction import run_name_extraction

from _harness import emit, emit_json

GOLDEN_ER_F1 = 0.9090909090909091


def _run_er(cache_path=None, distill: bool = False):
    system = LinguaManga(cache_path=None if cache_path is None else str(cache_path))
    dataset = generate_er_dataset("beer")
    result = run_lingua_manga_er(system, dataset, distill=distill)
    return result, system


def _run_names(cache_path):
    system = LinguaManga(cache_path=str(cache_path))
    documents = generate_name_dataset(n_documents=120).documents
    return run_name_extraction(system, documents), system


def _run_imputation(cache_path):
    system = LinguaManga(cache_path=str(cache_path))
    records = generate_buy_dataset(n_test=150).test
    return run_hybrid_imputation(system, records), system


APPS = {
    "entity_resolution": _run_er,
    "name_extraction": _run_names,
    "imputation_hybrid": _run_imputation,
}


@pytest.fixture(scope="module")
def warm_sweep(tmp_path_factory) -> dict[str, dict]:
    """Cold run then warm run of every demo app over one shared journal."""
    sweep: dict[str, dict] = {}
    for name, runner in APPS.items():
        journal = tmp_path_factory.mktemp(name) / "cache.jsonl"
        cold, _ = runner(journal)
        warm, _ = runner(journal)
        sweep[name] = {"cold": cold, "warm": warm}
    return sweep


def _render_warm(sweep: dict[str, dict]) -> list[str]:
    lines = [
        "warm-run savings (persistent exact-match cache journal):",
        f"{'app':>20} {'cold calls':>11} {'warm calls':>11} "
        f"{'reduction':>10} {'warm cost':>10}",
    ]
    for name, arms in sweep.items():
        cold, warm = arms["cold"], arms["warm"]
        reduction = 1.0 - warm.llm_calls / cold.llm_calls if cold.llm_calls else 1.0
        lines.append(
            f"{name:>20} {cold.llm_calls:>11} {warm.llm_calls:>11} "
            f"{reduction:>9.1%} ${warm.cost:>9.5f}"
        )
    return lines


def test_warm_runs_cut_provider_calls_by_half_or_more(warm_sweep):
    for name, arms in warm_sweep.items():
        cold, warm = arms["cold"], arms["warm"]
        assert cold.llm_calls > 0, name
        # Acceptance bar: >= 50% fewer provider calls on the warm run.
        assert warm.llm_calls <= cold.llm_calls * 0.5, name
        # And the answers came from the cache, not from thin air.
        assert warm.cached_calls >= cold.llm_calls * 0.5, name


def test_warm_run_quality_is_unchanged(warm_sweep):
    er = warm_sweep["entity_resolution"]
    assert er["warm"].f1 == er["cold"].f1
    assert er["warm"].predictions == er["cold"].predictions
    names = warm_sweep["name_extraction"]
    assert names["warm"].f1 == names["cold"].f1
    imputation = warm_sweep["imputation_hybrid"]
    assert imputation["warm"].accuracy == imputation["cold"].accuracy


@pytest.fixture(scope="module")
def distill_arms():
    baseline, _ = _run_er()
    distilled, _ = _run_er(distill=True)
    return baseline, distilled


def _render_distill(baseline, distilled) -> list[str]:
    return [
        "",
        "distillation router (ER, beer, similarity-feature forest student):",
        f"{'arm':>20} {'F1':>8} {'provider calls':>15} "
        f"{'distilled':>10} {'cost':>10}",
        f"{'plain template':>20} {baseline.f1:>8.4f} {baseline.llm_calls:>15} "
        f"{baseline.distilled_calls:>10} ${baseline.cost:>9.5f}",
        f"{'distill=True':>20} {distilled.f1:>8.4f} {distilled.llm_calls:>15} "
        f"{distilled.distilled_calls:>10} ${distilled.cost:>9.5f}",
    ]


def test_distillation_cuts_cost_without_dropping_f1(distill_arms):
    baseline, distilled = distill_arms
    assert baseline.f1 == pytest.approx(GOLDEN_ER_F1)
    # The student takes real traffic...
    assert distilled.distilled_calls > 0
    # ...the provider bill drops materially...
    assert distilled.llm_calls < baseline.llm_calls * 0.7
    assert distilled.cost < baseline.cost
    # ...and quality does not regress below the golden pin.
    assert distilled.f1 >= GOLDEN_ER_F1


def test_banded_levenshtein_speedup():
    from repro.text.similarity import levenshtein_distance

    rng = random.Random(13)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    a = "".join(rng.choice(alphabet) for _ in range(1200))
    b = "".join(rng.choice(alphabet) for _ in range(1200))
    repeats = 3

    started = time.perf_counter()
    for _ in range(repeats):
        full = levenshtein_distance(a, b)
    full_seconds = (time.perf_counter() - started) / repeats

    started = time.perf_counter()
    for _ in range(repeats):
        banded = levenshtein_distance(a, b, max_distance=8)
    banded_seconds = (time.perf_counter() - started) / repeats

    # The band proves "more than 8 edits apart" without the full table.
    assert full > 8 and banded == 9
    speedup = full_seconds / banded_seconds
    emit(
        "cache_levenshtein",
        f"banded levenshtein micro-benchmark (|a|=|b|=1200, budget=8):\n"
        f"full table {full_seconds * 1000:.2f}ms, "
        f"banded {banded_seconds * 1000:.2f}ms, speedup {speedup:.1f}x",
    )
    assert speedup >= 5.0


def test_emit_report(warm_sweep, distill_arms):
    baseline, distilled = distill_arms
    emit("cache", "\n".join(_render_warm(warm_sweep) + _render_distill(baseline, distilled)))
    arms = []
    for name, pair in warm_sweep.items():
        for temperature in ("cold", "warm"):
            result = pair[temperature]
            arms.append(
                {
                    "name": f"{name} {temperature}",
                    "provider_calls": result.llm_calls,
                    "cost": result.cost,
                }
            )
    arms.append(
        {
            "name": "er distill=off",
            "provider_calls": baseline.llm_calls,
            "cost": baseline.cost,
            "f1": baseline.f1,
        }
    )
    arms.append(
        {
            "name": "er distill=on",
            "provider_calls": distilled.llm_calls,
            "cost": distilled.cost,
            "f1": distilled.f1,
            "distilled_calls": distilled.distilled_calls,
        }
    )
    emit_json("cache", arms)
