"""Figure 3 / section 4.2 — the name-extraction pipeline.

Reproduces the demo storyline on the multilingual corpus:

1. the monolingual Figure 3 pipeline (tokenize -> LLMGC noun phrases ->
   LLM tagging) degrades on non-English text;
2. adding the LLM language-detection module restores accuracy
   ("Lingua Manga quickly resolves this issue by incorporating an LLM
   language detection module and providing multi-lingual tools");
3. attaching the optimizer's simulator to the tagging module slashes LLM
   calls at comparable accuracy ("the domain expert may use the simulator
   to create an ML-based alternative ... with significantly lower expenses").
"""

from __future__ import annotations

import pytest

from repro.core.runtime.system import LinguaManga
from repro.datasets.names import generate_name_dataset
from repro.tasks.name_extraction import run_name_extraction

from _harness import emit, emit_json


@pytest.fixture(scope="module")
def storyline():
    documents = generate_name_dataset(n_documents=260).documents
    system = LinguaManga()
    results = [
        ("monolingual", run_name_extraction(system, documents, multilingual=False)),
        ("+langdetect", run_name_extraction(system, documents, multilingual=True)),
    ]
    # Fresh system for the simulator arm so its call count is self-contained.
    sim_system = LinguaManga()
    results.append(
        (
            "+simulator",
            run_name_extraction(
                sim_system, documents, multilingual=True, simulate_tagging=True
            ),
        )
    )
    return documents, results


def _render(documents, results) -> str:
    languages = sorted({d.language for d in documents})
    header = f"{'variant':14s} {'F1':>7s} {'calls':>6s} {'cost':>9s} " + " ".join(
        f"{lang:>6s}" for lang in languages
    )
    lines = [header]
    for variant, result in results:
        per_language = " ".join(
            f"{100 * result.per_language_f1.get(lang, 0.0):6.1f}" for lang in languages
        )
        lines.append(
            f"{variant:14s} {100 * result.f1:7.2f} {result.llm_calls:6d} "
            f"${result.cost:<8.4f} {per_language}"
        )
    return "\n".join(lines)


def test_fig3_name_extraction(storyline, benchmark):
    documents, results = storyline
    emit("fig3_name_extraction", _render(documents, results))
    emit_json(
        "fig3_name_extraction",
        [
            {
                "name": variant,
                "provider_calls": result.llm_calls,
                "cost": result.cost,
                "f1": result.f1,
            }
            for variant, result in results
        ],
    )
    (_, mono), (_, multi), (_, simulated) = results

    # 1. multilingual data degrades the monolingual pipeline...
    assert mono.per_language_f1["en"] > 0.85
    non_english = [f1 for lang, f1 in mono.per_language_f1.items() if lang != "en"]
    assert max(non_english) < 0.75
    # 2. ...and the language-detection module fixes it.
    assert multi.f1 > mono.f1 + 0.15
    assert min(multi.per_language_f1.values()) > 0.6
    # 3. the simulator cuts LLM traffic at comparable accuracy.
    assert simulated.llm_calls < multi.llm_calls
    assert simulated.f1 > multi.f1 - 0.08

    # Benchmark one end-to-end extraction pass on a slice.
    slice_docs = documents[:25]

    def run_slice():
        return run_name_extraction(LinguaManga(), slice_docs, multilingual=True).f1

    f1 = benchmark(run_slice)
    assert f1 > 0.5
