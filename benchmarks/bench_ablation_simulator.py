"""Ablation B — the simulator's takeover control (section 3.2).

Sweeps the student's confidence threshold on the tagging workload and
reports accuracy vs LLM-call savings, plus the self-training claim: the
student can match or exceed its (noisy) teacher because confident
predictions filter the teacher's noise.
"""

from __future__ import annotations

import pytest

from repro.core.runtime.system import LinguaManga
from repro.datasets.names import generate_name_dataset
from repro.tasks.name_extraction import run_name_extraction

from _harness import emit, emit_json

THRESHOLDS = (0.95, 0.8, 0.65, 0.5)


@pytest.fixture(scope="module")
def sweep():
    documents = generate_name_dataset(n_documents=220).documents
    baseline_system = LinguaManga()
    baseline = run_name_extraction(baseline_system, documents, multilingual=True)
    rows = [
        {
            "threshold": None,
            "f1": 100 * baseline.f1,
            "llm_calls": baseline.llm_calls,
            "savings": 0.0,
        }
    ]
    for threshold in THRESHOLDS:
        system = LinguaManga()
        # Rebuild the template with a custom simulator config.
        from repro.core.templates.library import get_template

        pipeline = get_template("name_extraction").instantiate(
            multilingual=True, simulate_tagging=True
        )
        for op in pipeline.operators:
            if op.kind == "tag_names":
                op.params["simulate_config"]["confidence_threshold"] = threshold
        before = system.usage().served_calls
        report = system.run(
            pipeline, {"documents": [{"text": d.text} for d in documents]}
        )
        calls = system.usage().served_calls - before
        enriched = next(iter(report.outputs.values()))
        from repro.tasks.name_extraction import score_extractions

        _, _, f1 = score_extractions(documents, [d.get("names", []) for d in enriched])
        rows.append(
            {
                "threshold": threshold,
                "f1": 100 * f1,
                "llm_calls": calls,
                "savings": 1 - calls / baseline.llm_calls,
            }
        )
    return rows


def test_ablation_simulator(sweep, benchmark):
    lines = [f"{'threshold':>9s} {'F1':>7s} {'llm_calls':>10s} {'savings':>8s}"]
    for row in sweep:
        threshold = "off" if row["threshold"] is None else f"{row['threshold']:.2f}"
        lines.append(
            f"{threshold:>9s} {row['f1']:7.2f} {row['llm_calls']:10d} "
            f"{100 * row['savings']:7.1f}%"
        )
    emit("ablation_simulator", "\n".join(lines))
    emit_json(
        "ablation_simulator",
        [
            {
                "name": "off" if row["threshold"] is None else f"threshold={row['threshold']:.2f}",
                "provider_calls": row["llm_calls"],
                "f1": row["f1"],
                "savings": row["savings"],
            }
            for row in sweep
        ],
    )

    baseline = sweep[0]
    by_threshold = {row["threshold"]: row for row in sweep[1:]}
    # Lower confidence thresholds mean more takeover, hence more savings.
    savings = [by_threshold[t]["savings"] for t in THRESHOLDS]
    assert savings == sorted(savings)
    # An aggressive threshold saves a lot...
    assert by_threshold[0.5]["savings"] > 0.25
    # ...while accuracy stays within a few points of the teacher-only run
    # (and can exceed it — the self-training-with-filters effect).
    assert by_threshold[0.65]["f1"] > baseline["f1"] - 6

    # Benchmark: one simulated-tagging run on a slice.
    slice_docs = generate_name_dataset(n_documents=40).documents

    def run_slice():
        return run_name_extraction(
            LinguaManga(), slice_docs, multilingual=True, simulate_tagging=True
        ).f1

    assert benchmark(run_slice) > 0.4
