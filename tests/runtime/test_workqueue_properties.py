"""Hypothesis property tests for the streaming executor's shard lifecycle.

Two laws the streaming engine rests on, checked over generated failure
schedules, worker counts and crash points instead of hand-picked ones:

1. **Replay composition** — a run crashed at any shard boundary and
   resumed yields the report of one uninterrupted ``workers=1`` run:
   ``replay(prefix) . resume == full``, poisoned shards included.
2. **Poison finality** — a shard that always fails runs ``apply_chunk``
   exactly ``max_attempts`` times across a crash and any number of
   resumes: never again once its verdict commits.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.llm.faults import CrashInjected, CrashPoint
from tests.conftest import assert_reports_identical
from tests.runtime.test_streaming_executor import Scripted, run_toy

BOUNDARIES = ("shard:claimed", "shard:executed", "shard:journaled")

crashes = st.none() | st.tuples(
    st.sampled_from(BOUNDARIES), st.integers(min_value=1, max_value=8)
)


def scheduled_work(fails, executions):
    """Shard ``i`` raises on its first ``fails[i]`` executions, ever.

    ``executions`` is shared by every run of one schedule, so a failure
    burnt before a crash is not burnt again after it.
    """

    def work(chunk):
        index = chunk[0] // 2  # records are range(2n): shard i is [2i, 2i+1]
        executions[index] += 1
        if executions[index] <= fails[index]:
            raise RuntimeError(f"shard {index} failed")
        return [value * 2 for value in chunk]

    return work


def crashed_then_resumed(records, tmp_path, work, crash, **kwargs):
    """Run once with ``crash`` armed (it may not fire), then resume."""
    if crash is not None:
        try:
            run_toy(
                records, tmp_path, middle=Scripted(work),
                crash=CrashPoint(*crash), **kwargs,
            )
        except CrashInjected:
            pass
    return run_toy(records, tmp_path, middle=Scripted(work), **kwargs)


@settings(max_examples=30, deadline=None)
@given(
    fails=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    workers=st.sampled_from([1, 2, 4]),
    crash=crashes,
)
def test_replay_of_prefix_composes_with_resume(
    tmp_path_factory, fails, workers, crash
):
    """replay(prefix) . resume == full, including poisoned shards."""
    records = list(range(2 * len(fails)))
    full = run_toy(
        records, tmp_path_factory.mktemp("full"),
        middle=Scripted(scheduled_work(fails, Counter())),
    )
    resumed = crashed_then_resumed(
        records, tmp_path_factory.mktemp("resumed"),
        scheduled_work(fails, Counter()), crash, workers=workers,
    )
    assert_reports_identical(full, resumed)


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=6),
    poison_shard=st.integers(min_value=0, max_value=5),
    max_attempts=st.integers(min_value=1, max_value=3),
    workers=st.sampled_from([1, 2, 4]),
    crash=crashes,
)
def test_poisoned_shards_never_reexecute_after_commit(
    tmp_path_factory, n_shards, poison_shard, max_attempts, workers, crash
):
    tmp_path = tmp_path_factory.mktemp("poison")
    poison_shard %= n_shards
    fails = [0] * n_shards
    fails[poison_shard] = max_attempts + 1  # never succeeds
    executions = Counter()
    work = scheduled_work(fails, executions)
    records = list(range(2 * n_shards))
    kwargs = {"workers": workers, "max_attempts": max_attempts}
    report = crashed_then_resumed(records, tmp_path, work, crash, **kwargs)
    for _ in range(2):  # any number of resumes afterwards: pure replay
        again = run_toy(records, tmp_path, middle=Scripted(work), **kwargs)
        assert_reports_identical(report, again)
    assert executions[poison_shard] == max_attempts
    assert report.recovery["quarantined_shards"] == 1
    assert {q.error for q in report.quarantine} == {
        f"shard {poison_shard} poisoned after {max_attempts} attempt(s): "
        f"shard {poison_shard} failed"
    }
