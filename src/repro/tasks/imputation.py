"""Data-imputation task: the section 4.3 flow, packaged.

Two Lingua Manga variants are provided, matching the paper's comparison:

- **pure LLM module** — every record goes to the LLM (accuracy 93.92% in
  the paper);
- **optimized hybrid** — the validator-repaired LLMGC module resolves
  brand-mentioning records locally and escalates only the hard ones,
  "using only 1/6 LLM calls to achieve higher accuracy" (94.48%).
"""

from __future__ import annotations

from functools import partial

from repro.core.dsl.builder import PipelineBuilder
from repro.core.templates.library import get_template
from repro.datasets.imputation import ImputationRecord, generate_buy_dataset
from repro.ml.metrics import accuracy
from repro.tasks.table import Plan, Task, ref_int, register, run

__all__ = ["run_llm_imputation", "run_hybrid_imputation"]


def _resolve(ref: dict, probe: bool) -> list[ImputationRecord] | None:
    seed = ref_int(ref, "seed", 11)
    n_train = ref_int(ref, "n_train", 60)
    n_test = ref_int(ref, "n_test", 120, minimum=1)
    if probe:
        return None
    return generate_buy_dataset(seed=seed, n_train=n_train, n_test=n_test).test


def _plan(pipeline, records: list[ImputationRecord]) -> Plan:
    """``pipeline`` over the visible records, scored by manufacturer accuracy."""
    truth = [r.manufacturer for r in records]

    def score(imputed: list) -> tuple[dict, list]:
        predictions = ["Unknown" if p is None else str(p).strip() for p in imputed]
        return {"accuracy": accuracy(truth, predictions)}, predictions

    return Plan(pipeline, {"records": [r.visible() for r in records]}, score)


def _build_llm(records: list[ImputationRecord]) -> Plan:
    """Pure LLM-module pipeline: one (validated) prompt per record."""
    pipeline = (
        PipelineBuilder("imputation_pure_llm", "LLM module for every record")
        .load(source="records")
        .impute(impl="llm")
        .save(key="imputed")
        .build()
    )
    return _plan(pipeline, records)


def _build_hybrid(records: list[ImputationRecord]) -> Plan:
    """The expert template: LLMGC rules + LLM escalation (Figure 4).

    The LLMGC stage is not parallel-safe (its first call generates the
    code), so the scheduler runs it as one whole-input chunk at any worker
    count.
    """
    return _plan(get_template("data_imputation").instantiate(), records)


register(Task("imputation", _resolve, {}, _build_llm))
register(Task("imputation_hybrid", _resolve, {}, _build_hybrid))

#: ``run_llm_imputation(system, records, *, workers=, ...)``, and the hybrid alike.
run_llm_imputation = partial(run, "imputation")
run_hybrid_imputation = partial(run, "imputation_hybrid")
