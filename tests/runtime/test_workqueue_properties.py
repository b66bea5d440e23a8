"""Hypothesis property test for the streaming executor's shard lifecycle.

The law the streaming engine rests on, checked over generated failures,
worker counts and crash points instead of hand-picked ones:
**replay composition** — a run that crashed at any shard boundary, or that
a failing shard stopped, and was then resumed with the failure gone yields
the report of one uninterrupted ``workers=1`` run, and the resume executes
only the shards the ledger does not hold: ``replay(prefix) . resume == full``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.llm.faults import CrashInjected, CrashPoint
from tests.conftest import assert_reports_identical
from tests.runtime.test_streaming_executor import Scripted, run_toy

BOUNDARIES = ("shard:claimed", "shard:executed", "shard:journaled")

crashes = st.none() | st.tuples(
    st.sampled_from(BOUNDARIES), st.integers(min_value=1, max_value=8)
)


class ShardFailed(Exception):
    """The scripted failure of one shard."""


def scripted_work(failing=None, executed=None):
    """Double each record; shard ``failing`` raises, ``executed`` logs shards."""

    def work(chunk):
        index = chunk[0] // 2  # records are range(2n): shard i is [2i, 2i+1]
        if executed is not None:
            executed.append(index)
        if index == failing:
            raise ShardFailed(f"shard {index} failed")
        return [value * 2 for value in chunk]

    return work


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=6),
    failing=st.none() | st.integers(min_value=0, max_value=5),
    workers=st.sampled_from([1, 2, 4]),
    crash=crashes,
)
def test_replay_of_prefix_composes_with_resume(
    tmp_path_factory, n_shards, failing, workers, crash
):
    """replay(prefix) . resume == full, after a crash or a failing shard."""
    records = list(range(2 * n_shards))
    full = run_toy(
        records, tmp_path_factory.mktemp("full"), middle=Scripted(scripted_work())
    )
    tmp_path = tmp_path_factory.mktemp("resumed")
    if failing is not None:
        failing %= n_shards
    first = None
    try:
        first = run_toy(
            records, tmp_path, middle=Scripted(scripted_work(failing)),
            workers=workers, crash=None if crash is None else CrashPoint(*crash),
        )
    except (CrashInjected, ShardFailed):
        pass
    if failing is not None:
        assert first is None  # a failing shard never lets the run finish
    executed: list[int] = []
    resumed = run_toy(
        records, tmp_path, middle=Scripted(scripted_work(executed=executed)),
        workers=workers,
    )
    assert_reports_identical(full, resumed)
    assert len(executed) == n_shards - resumed.recovery["replayed_shards"]
