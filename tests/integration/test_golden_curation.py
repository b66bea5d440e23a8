"""Golden end-to-end fixtures for the three curation templates.

Each template runs on a small fixed corpus against the simulated provider
and must reproduce the committed fixture byte for byte: per-document
predictions, verdict counts, F1 and provider-call counts.  Any drift in
the candidate kernels, cascade thresholds, prompt text, skills or corpus
generator shows up here as a diff.

Regenerate after a *deliberate* behaviour change with:

    REGEN_GOLDEN_CURATION=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden_curation.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.runtime.system import LinguaManga
from repro.datasets.curation import CurationCorpus
from repro.tasks.curation import run_decontamination, run_dedup, run_quality_filter

GOLDEN_DIR = Path(__file__).parent / "golden_curation"
_REGEN = os.environ.get("REGEN_GOLDEN_CURATION") == "1"

RUNNERS = {
    "document_dedup": run_dedup,
    "quality_filter": run_quality_filter,
    "decontamination": run_decontamination,
}


@pytest.fixture(scope="module")
def corpus() -> CurationCorpus:
    return CurationCorpus(n_docs=120, seed=13)


def _snapshot(result) -> dict:
    return {
        "task": result.task,
        "corpus": result.corpus,
        "f1": round(result.f1, 6),
        "llm_calls": result.llm_calls,
        "predictions": result.predictions,
    }


def _assert_matches(name: str, snapshot: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    text = json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
    if _REGEN or not path.exists():
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text, (
        f"curation run drifted from fixture {path.name}; if the change is "
        f"deliberate, regenerate with REGEN_GOLDEN_CURATION=1"
    )


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_golden_run(name, corpus):
    result = RUNNERS[name](LinguaManga(), corpus)
    _assert_matches(name, _snapshot(result))
