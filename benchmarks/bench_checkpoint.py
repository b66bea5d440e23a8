"""Checkpoint journal economics — what the WAL costs, what a resume saves.

Two claims, measured on the ER demo app:

1. **Journalling is cheap, in the journal's own units.**  A checkpointed
   run keeps a write-ahead journal (header + per-chunk ledger slices +
   operator commits) beside the execution.  Its cost is read where it is
   paid: the run journal's four entry points (``begin``, ``record_chunk``,
   ``commit_operator``, ``close``) are timed directly in a one-worker run,
   its ``fsync`` calls counted and its file measured, and each is gated per
   journalled record.  (The gate used to be the journal's share of a plain
   run's wall clock; that run times the simulated provider, so the share
   rose from 4.6 % to 25 % as the simulator got 2.5x faster while the
   journal's own cost did not move.)
2. **A resume re-pays only the un-journalled suffix.**  A run killed at a
   chunk boundary and resumed from its journal replays every completed
   chunk at zero provider cost, serves strictly fewer provider calls than
   the interrupted-and-restarted-from-scratch alternative would, and still
   produces a report byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.runtime.checkpoint import OperatorContext, RunCheckpoint
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples

from _harness import emit, emit_json

N_ENTITIES = 1200  # large enough that per-run fixed costs amortise
METERED_RUNS = 5

#: Per journalled record (one ER pair = one ledger record + one output).
#: Time is the best of METERED_RUNS, so only a real cost can exceed it.
US_PER_RECORD_BAR = 40  # measured 13-15
BYTES_PER_RECORD_BAR = 1024  # measured 932; deterministic
#: The first append, one per 50 ms of appending after it, close.
FSYNCS_PER_RUN_BAR = 8  # measured 3

#: Everything the engine calls to journal a run.
JOURNAL_ENTRY_POINTS = (
    (RunCheckpoint, "begin"),
    (OperatorContext, "record_chunk"),
    (RunCheckpoint, "commit_operator"),
    (RunCheckpoint, "close"),
)


@pytest.fixture(scope="module")
def dataset():
    return generate_er_dataset("beer", seed=7, n_entities=N_ENTITIES)


def _run(dataset, *, workers, checkpoint_path=None, checkpoint=None,
         service=None, chunk_size=None):
    system = LinguaManga(service=service)
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4)
    )
    return system.run(
        pipeline,
        {"pairs": pairs_as_inputs(dataset.test)},
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
        checkpoint=checkpoint,
    )


def _metered_run(dataset, wal) -> dict:
    """One checkpointed run: seconds inside the journal, fsyncs, bytes."""
    spent, fsyncs = [0.0], []

    def timed(function):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - started

        return wrapper

    def counted_fsync(descriptor):
        # Counted, not performed: what one sync costs is the disk's figure,
        # not the journal's, and would drown the per-record time on a slow one.
        fsyncs.append(descriptor)

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in JOURNAL_ENTRY_POINTS:
            patch.setattr(owner, name, timed(getattr(owner, name)))
        patch.setattr(os, "fsync", counted_fsync)
        # One worker: nothing overlaps the journal, so time inside it is
        # its cost and not a wait for the interpreter lock.
        _run(dataset, workers=1, checkpoint_path=wal)
    return {"seconds": spent[0], "fsyncs": len(fsyncs), "bytes": wal.stat().st_size}


@pytest.fixture(scope="module")
def journal_cost(dataset, tmp_path_factory) -> dict:
    scratch = tmp_path_factory.mktemp("wal")
    _metered_run(dataset, scratch / "warmup.wal")  # imports, allocator
    runs = [_metered_run(dataset, scratch / f"run{i}.wal") for i in range(METERED_RUNS)]
    records = len(dataset.test)
    seconds = min(run["seconds"] for run in runs)
    assert len({run["bytes"] for run in runs}) == 1  # the journal is deterministic
    return {
        "records": records,
        "seconds": seconds,
        "us_per_record": seconds / records * 1e6,
        "bytes": runs[0]["bytes"],
        "bytes_per_record": runs[0]["bytes"] / records,
        "fsyncs": max(run["fsyncs"] for run in runs),
    }


def test_journal_cost_per_record_within_bars(journal_cost):
    assert journal_cost["us_per_record"] <= US_PER_RECORD_BAR, journal_cost
    assert journal_cost["bytes_per_record"] <= BYTES_PER_RECORD_BAR, journal_cost
    assert journal_cost["fsyncs"] <= FSYNCS_PER_RUN_BAR, journal_cost


@pytest.fixture(scope="module")
def resume_arms(dataset, tmp_path_factory) -> dict:
    """One uninterrupted run, one crashed-then-resumed run, calls counted.

    ``workers=1`` keeps the crash surgical: with concurrent workers the
    in-flight sibling chunks finish (and journal) while the injected crash
    unwinds, so the "crashed prefix" would already cover the whole run.
    Sequential chunks make the prefix exactly the journalled chunks.
    """
    wal = tmp_path_factory.mktemp("resume") / "run.wal"

    full_provider = SimulatedProvider()
    full = _run(
        dataset,
        workers=1,
        chunk_size=8,
        service=LLMService(full_provider),
    )

    crash_provider = SimulatedProvider()
    with pytest.raises(CrashInjected):
        _run(
            dataset,
            workers=1,
            chunk_size=8,
            service=LLMService(crash_provider),
            checkpoint=RunCheckpoint(wal, crash=CrashPoint("chunk:journaled", hits=8)),
        )

    resume_provider = SimulatedProvider()
    resumed = _run(
        dataset,
        workers=1,
        chunk_size=8,
        service=LLMService(resume_provider),
        checkpoint=RunCheckpoint(wal),
    )
    return {
        "full": full,
        "resumed": resumed,
        "full_calls": full_provider.calls_served,
        "crash_calls": crash_provider.calls_served,
        "resume_calls": resume_provider.calls_served,
    }


def test_resume_replays_prefix_at_zero_provider_cost(resume_arms):
    # The crash landed mid-run: both arms paid for real work.
    assert 0 < resume_arms["crash_calls"] < resume_arms["full_calls"]
    assert resume_arms["resume_calls"] < resume_arms["full_calls"]
    # Crash + resume together pay for exactly one uninterrupted run:
    # nothing the journal holds is re-bought, nothing is lost.
    assert (
        resume_arms["crash_calls"] + resume_arms["resume_calls"]
        == resume_arms["full_calls"]
    )


def test_resumed_report_is_byte_identical(resume_arms):
    assert (
        resume_arms["resumed"].canonical_json()
        == resume_arms["full"].canonical_json()
    )


def test_emit_report(journal_cost, resume_arms):
    saved = 1.0 - resume_arms["resume_calls"] / resume_arms["full_calls"]
    emit(
        "checkpoint",
        "\n".join(
            [
                f"run journal cost (ER beer, n_entities={N_ENTITIES}, workers=1, "
                f"best of {METERED_RUNS} metered runs):",
                f"  journalled records {journal_cost['records']:>8}",
                f"  time in journal    {journal_cost['seconds'] * 1000:>8.2f} ms  = "
                f"{journal_cost['us_per_record']:.1f} us/record   "
                f"(bar {US_PER_RECORD_BAR})",
                f"  journal size       {journal_cost['bytes']:>8} B   = "
                f"{journal_cost['bytes_per_record']:.0f} B/record   "
                f"(bar {BYTES_PER_RECORD_BAR})",
                f"  fsyncs             {journal_cost['fsyncs']:>8}      "
                f"(bar {FSYNCS_PER_RUN_BAR})",
                "",
                "crash-then-resume provider economics (workers=1, chunk_size=8):",
                f"  uninterrupted run    {resume_arms['full_calls']:>6} provider calls",
                f"  crashed prefix       {resume_arms['crash_calls']:>6} provider calls",
                f"  resumed suffix       {resume_arms['resume_calls']:>6} provider calls",
                f"  resume saved         {saved:>6.1%} of a from-scratch restart",
            ]
        ),
    )
    emit_json(
        "checkpoint",
        [
            {
                "name": "run journal",
                "wall_seconds": journal_cost["seconds"],
                "records": journal_cost["records"],
                "us_per_record": journal_cost["us_per_record"],
                "journal_bytes": journal_cost["bytes"],
                "bytes_per_record": journal_cost["bytes_per_record"],
                "fsyncs": journal_cost["fsyncs"],
            },
            {
                "name": "uninterrupted run",
                "provider_calls": resume_arms["full_calls"],
            },
            {
                "name": "crashed prefix",
                "provider_calls": resume_arms["crash_calls"],
            },
            {
                "name": "resumed suffix",
                "provider_calls": resume_arms["resume_calls"],
                "resume_saved": saved,
            },
        ],
    )
