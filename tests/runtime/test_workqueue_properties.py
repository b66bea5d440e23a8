"""Hypothesis property tests for the shard ledger and work queue.

Two laws the streaming tentpole rests on, checked over generated
schedules instead of hand-picked ones:

1. **Replay composition** — journalling a prefix, reopening the ledger and
   executing the suffix yields the same fold sequence as one uninterrupted
   run: ``replay(prefix) . resume == full``.
2. **Poison finality** — once a poison verdict is journalled and confirmed,
   that shard is never served for execution again, in this run or any
   resumed one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.runtime.workqueue import ShardLedger, WorkQueue
from repro.llm.service import LLMService


class _Scope:
    """Stand-in for a CallScope in ledger shard lines."""

    def __init__(self, records=(), elapsed=0.0):
        self.records = list(records)
        self.elapsed = elapsed


class _Outcome:
    def __init__(self, quarantine=(), degraded=0):
        self.quarantine = list(quarantine)
        self.degraded = degraded


def fresh_ledger(tmp_path, name):
    ledger = ShardLedger(tmp_path / name)
    ledger.begin("fp", LLMService())
    return ledger


def fresh_queue(tmp_path, chunks, name="q", **kwargs):
    ledger = fresh_ledger(tmp_path, f"{name}.jsonl")
    queue = WorkQueue(iter(chunks), window=64, ledger=ledger, **kwargs)
    return queue, ledger


def drain(queue, ledger, fail_indexes=frozenset()):
    """Run the queue to completion; returns the folded (index, kind) list."""
    folded = []
    while True:
        kind, index = queue.next_task()
        if kind == "done":
            return folded
        if kind == "retry":
            shard = queue.next_foldable()
            while shard is not None:
                folded.append((shard.index, shard.status))
                queue.mark_folded(shard.index)
                shard = queue.next_foldable()
            continue
        if kind == "poison":  # carried budget from a prior run
            queue.confirm_poison(index)
            continue
        if index in fail_indexes:
            verdict, attempts = queue.fail(index)
            ledger.record_fail(index, attempts, "op", "boom")
            if verdict == "poison":
                queue.confirm_poison(index)
        else:
            ledger.record_shard(
                index, 1, [("op", _Scope([]), _Outcome())], [index]
            )
            queue.complete(index)


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=10),
    prefix_frac=st.floats(min_value=0.0, max_value=1.0),
    fail_shard=st.integers(min_value=0, max_value=9) | st.none(),
)
def test_replay_of_prefix_composes_with_resume(
    tmp_path_factory, n_shards, prefix_frac, fail_shard
):
    """replay(prefix) . resume == full, including a poisoned shard."""
    tmp_path = tmp_path_factory.mktemp("replay")
    fails = (
        frozenset({fail_shard})
        if fail_shard is not None and fail_shard < n_shards
        else frozenset()
    )
    chunks = [[i] for i in range(n_shards)]

    # One uninterrupted run.
    queue, ledger = fresh_queue(tmp_path, chunks, name="full", max_attempts=2)
    full = drain(queue, ledger, fails)
    ledger.close()

    # A prefix run journals only the first k shards, then "crashes".
    k = int(round(prefix_frac * n_shards))
    prefix_path = tmp_path / "prefix.jsonl"
    ledger = ShardLedger(prefix_path)
    ledger.begin("fp", LLMService())
    for index in range(k):
        if index in fails:
            # the prefix run burned one attempt before dying
            ledger.record_fail(index, 1, "op", "boom")
        else:
            ledger.record_shard(
                index, 1, [("op", _Scope([]), _Outcome())], [index]
            )
    ledger.close()

    # Resume: journalled shards replay, the suffix executes.
    ledger = ShardLedger(prefix_path)
    ledger.begin("fp", LLMService())
    queue = WorkQueue(iter(chunks), window=64, ledger=ledger, max_attempts=2)
    resumed = drain(queue, ledger, fails)
    ledger.close()

    assert [(i, s) for i, s in resumed] == [(i, s) for i, s in full]
    assert [i for i, _ in resumed] == list(range(n_shards))


@settings(max_examples=30, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=6),
    poison_shard=st.integers(min_value=0, max_value=5),
    max_attempts=st.integers(min_value=1, max_value=3),
)
def test_poisoned_shards_never_reexecute_after_commit(
    tmp_path_factory, n_shards, poison_shard, max_attempts
):
    tmp_path = tmp_path_factory.mktemp("poison")
    poison_shard %= n_shards
    chunks = [[i] for i in range(n_shards)]
    queue, ledger = fresh_queue(
        tmp_path, chunks, name="run", max_attempts=max_attempts
    )
    serves = {poison_shard: 0}
    while True:
        kind, index = queue.next_task()
        if kind == "done":
            break
        if kind == "retry":
            shard = queue.next_foldable()
            while shard is not None:
                queue.mark_folded(shard.index)
                shard = queue.next_foldable()
            continue
        assert kind == "run"
        if index == poison_shard:
            serves[poison_shard] += 1
            verdict, attempts = queue.fail(index)
            ledger.record_fail(index, attempts, "op", "boom")
            if verdict == "poison":
                queue.confirm_poison(index)
            continue
        ledger.record_shard(index, 1, [("op", _Scope([]), _Outcome())], [index])
        queue.complete(index)
    # The budget bounds execution attempts exactly.
    assert serves[poison_shard] == max_attempts
    assert queue.poisoned == 1
    ledger.close()

    # Any number of resumes afterwards: the poison verdict is final — the
    # shard comes back as a carried "poison" task, never as "execute".
    for round_ in range(2):
        ledger = ShardLedger(tmp_path / "run.jsonl")
        ledger.begin("fp", LLMService())
        queue = WorkQueue(
            iter(chunks), window=64, ledger=ledger, max_attempts=max_attempts
        )
        while True:
            kind, index = queue.next_task()
            if kind == "done":
                break
            if kind == "retry":
                shard = queue.next_foldable()
                while shard is not None:
                    queue.mark_folded(shard.index)
                    shard = queue.next_foldable()
                continue
            assert kind != "run", "poisoned shard re-executed after commit"
            assert kind == "poison" and index == poison_shard
            queue.confirm_poison(index)
        ledger.close()
