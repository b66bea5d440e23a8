"""Packaged data-curation tasks: the paper's demo applications plus the
blocking and discovery stages a full deployment needs.

Every packaged task is a row of one table (:mod:`repro.tasks.table`);
importing this package registers them all.
"""

from repro.tasks.blocking import BlockingResult, block_records
from repro.tasks.discovery import TableMatch, search_tables
from repro.tasks.profiling import (
    Anomaly,
    ColumnProfile,
    TableProfile,
    detect_anomalies,
    profile_table,
    summarize_table,
)
from repro.tasks.table import TASKS, Task, TaskResult, run
from repro.tasks.curation import (
    run_decontamination,
    run_dedup,
    run_quality_filter,
)
from repro.tasks.entity_resolution import (
    pairs_as_inputs,
    pick_examples,
    run_lingua_manga_er,
)
from repro.tasks.imputation import run_hybrid_imputation, run_llm_imputation
from repro.tasks.name_extraction import run_name_extraction, score_extractions

__all__ = [
    "BlockingResult",
    "block_records",
    "TableMatch",
    "search_tables",
    "Anomaly",
    "ColumnProfile",
    "TableProfile",
    "detect_anomalies",
    "profile_table",
    "summarize_table",
    "TASKS",
    "Task",
    "TaskResult",
    "run",
    "run_decontamination",
    "run_dedup",
    "run_quality_filter",
    "pairs_as_inputs",
    "pick_examples",
    "run_lingua_manga_er",
    "run_hybrid_imputation",
    "run_llm_imputation",
    "run_name_extraction",
    "score_extractions",
]
