"""Crash-safe checkpoint/resume: kill a run mid-flight, pay only the rest.

A long curation run against a paid LLM must survive process death without
re-paying for finished work.  ``checkpoint_path=`` keeps a write-ahead
journal beside the cache journal; re-running the same call after a crash
replays everything the journal holds at zero provider cost and executes
only the unjournalled suffix — and the resumed report is byte-identical
to the report of an uninterrupted run.

This demo stages the crash with :class:`~repro.llm.faults.CrashPoint`,
the same harness the crash-matrix tests use: it raises at a named journal
boundary, unwinding the run exactly as a real ``kill -9`` would.

Run with:  python examples/checkpoint_resume.py
"""

import tempfile
from pathlib import Path

from repro import LinguaManga
from repro.core.runtime.checkpoint import RunCheckpoint
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples


def run_er(dataset, wal: Path, crash: CrashPoint | None = None):
    """One checkpointed ER run on a fresh system; returns (report, calls)."""
    provider = SimulatedProvider()
    system = LinguaManga(service=LLMService(provider))
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(dataset.train, 4)
    )
    report = system.run(
        pipeline,
        {"pairs": pairs_as_inputs(dataset.test)},
        workers=1,
        chunk_size=8,
        checkpoint=RunCheckpoint(wal, crash=crash),
    )
    return report, provider.calls_served


def main() -> None:
    dataset = generate_er_dataset("beer", seed=7, n_entities=300)

    with tempfile.TemporaryDirectory() as scratch:
        # An uninterrupted run, for comparison.
        baseline, full_calls = run_er(dataset, Path(scratch) / "baseline.wal")
        print(f"uninterrupted run: {full_calls} provider calls")

        # Now the same run, killed after the 4th chunk of pairs hits the
        # journal (the 5th chunk line: ``load`` runs as one chunk first).
        wal = Path(scratch) / "run.wal"
        try:
            run_er(dataset, wal, crash=CrashPoint("chunk:journaled", hits=5))
        except CrashInjected as death:
            print(f"crashed: {death}")

        # Re-run the same call: the journalled prefix replays for free.
        resumed, resume_calls = run_er(dataset, wal)
        print(f"resumed run: {resume_calls} provider calls "
              f"(saved {full_calls - resume_calls} of {full_calls})")

        # The resume is invisible in the results.
        identical = resumed.canonical_json() == baseline.canonical_json()
        print(f"resumed report byte-identical to uninterrupted run: {identical}")
        assert identical and resume_calls < full_calls


if __name__ == "__main__":
    main()
