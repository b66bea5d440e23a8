"""Corpus curation family — F1 and cost of the three templates vs baselines.

One sweep over (template, mode): the LLM cascade pipelines, a warm rerun
demonstrating the zero-call replay, and their fixed non-LLM baselines —
classic MinHash + Jaccard-threshold dedup, rules-only quality filtering,
verbatim hard-scan decontamination.  Each LLM arm records
cost-per-F1-point so EXPERIMENTS.md can show the cascades buying their F1
lead with a fraction of the full-verification budget.

Runs under pytest (CI smoke, asserting the acceptance claims) or directly
(``python bench_curation.py``); either path emits ``BENCH_curation.json``.

``CURATION_BENCH_DOCS`` scales the corpus (default 240 for CI smoke).

The warm arm is what a *new process* over a filled prompt cache pays: the
in-process memo of the last dedup scan (its pairs and sketches) is emptied
first, so its wall (and the docs/s derived from it) is all local-kernel
work, not memo hits.  Walls are
recorded, never gated.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.baselines.curation import (
    evaluate_hard_scan_decontamination,
    evaluate_rules_quality,
    evaluate_threshold_dedup,
)
from repro.core.compiler.curation import dedup_candidate_pairs
from repro.core.runtime.system import LinguaManga
from repro.datasets.curation import CurationCorpus
from repro.tasks.curation import (
    run_decontamination,
    run_dedup,
    run_quality_filter,
)

from _harness import emit, emit_json

N_DOCS = int(os.environ.get("CURATION_BENCH_DOCS", "240"))
SEED = int(os.environ.get("CURATION_BENCH_SEED", "7"))

TASKS = (
    ("document_dedup", run_dedup, evaluate_threshold_dedup, "threshold_dedup"),
    ("quality_filter", run_quality_filter, evaluate_rules_quality, "rules_quality"),
    (
        "decontamination",
        run_decontamination,
        evaluate_hard_scan_decontamination,
        "hard_scan",
    ),
)


def cost_per_point(cost: float, f1: float) -> float | None:
    """Cost per F1 percentage point (None when F1 is zero)."""
    return round(cost / (f1 * 100), 6) if f1 > 0 else None


def run_sweep() -> list[dict]:
    corpus = CurationCorpus(n_docs=N_DOCS, seed=SEED)
    arms: list[dict] = []
    for task_name, runner, baseline_eval, baseline_name in TASKS:
        system = LinguaManga()
        start = time.perf_counter()
        cold = runner(system, corpus)
        cold_wall = time.perf_counter() - start

        dedup_candidate_pairs([])  # forget the cold arm's scan
        start = time.perf_counter()
        warm = runner(system, corpus)
        warm_wall = time.perf_counter() - start

        baseline = baseline_eval(corpus)
        assert warm.predictions == cold.predictions

        arms.append(
            {
                "name": f"{task_name}:llm",
                "wall_seconds": round(cold_wall, 3),
                "docs_per_s": round(N_DOCS / cold_wall, 1),
                "provider_calls": cold.llm_calls,
                "cost": round(cold.cost, 6),
                "f1": round(cold.f1, 4),
                "cost_per_f1_point": cost_per_point(cold.cost, cold.f1),
            }
        )
        arms.append(
            {
                "name": f"{task_name}:warm",
                "wall_seconds": round(warm_wall, 3),
                "docs_per_s": round(N_DOCS / warm_wall, 1),
                "provider_calls": warm.llm_calls,
                "cost": round(warm.cost, 6),
                "f1": round(warm.f1, 4),
            }
        )
        arms.append(
            {
                "name": f"{task_name}:{baseline_name}",
                "wall_seconds": None,
                "provider_calls": 0,
                "cost": 0.0,
                "f1": round(baseline.f1, 4),
            }
        )
    return arms


@pytest.fixture(scope="module")
def sweep() -> list[dict]:
    return run_sweep()


def test_llm_beats_its_baseline_on_every_task(sweep):
    for task_name, _, _, baseline_name in TASKS:
        llm = next(a for a in sweep if a["name"] == f"{task_name}:llm")
        base = next(a for a in sweep if a["name"] == f"{task_name}:{baseline_name}")
        assert llm["f1"] > base["f1"], task_name


def test_warm_rerun_pays_nothing(sweep):
    for arm in sweep:
        if arm["name"].endswith(":warm"):
            assert arm["provider_calls"] == 0, arm["name"]
            assert arm["cost"] == 0.0, arm["name"]


def test_cascades_call_only_a_fraction_of_the_corpus(sweep):
    # Dedup and decontamination adjudicate only the gray zone; full
    # verification would cost one call per candidate pair / document.
    for task_name in ("document_dedup", "decontamination"):
        llm = next(a for a in sweep if a["name"] == f"{task_name}:llm")
        assert 0 < llm["provider_calls"] < N_DOCS / 4, task_name


def test_emit_report(sweep):
    corpus = CurationCorpus(n_docs=N_DOCS, seed=SEED)
    lines = [f"corpus: {corpus.fingerprint}  ({N_DOCS} docs)"]
    by_task: dict[str, list[dict]] = {}
    for arm in sweep:
        by_task.setdefault(arm["name"].split(":", 1)[0], []).append(arm)
    for task_name, task_arms in by_task.items():
        llm, warm, base = task_arms
        lines.append(
            f"{task_name:16s}  llm F1 {llm['f1']:.4f} "
            f"({llm['provider_calls']} calls, ${llm['cost']:.4f})  "
            f"baseline F1 {base['f1']:.4f}  "
            f"warm rerun {warm['provider_calls']} calls "
            f"({warm['wall_seconds']:.3f} s, {warm['docs_per_s']:.0f} docs/s)"
        )
    emit("curation", "\n".join(lines))
    emit_json("curation", sweep, n_docs=N_DOCS, seed=SEED)


if __name__ == "__main__":
    arms = run_sweep()
    emit_json("curation", arms, n_docs=N_DOCS, seed=SEED)
    for arm in arms:
        print(arm)
