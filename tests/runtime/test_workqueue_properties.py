"""Hypothesis property tests for the shard ledger and work queue.

Three laws the streaming tentpole rests on, checked over generated
schedules instead of hand-picked ones:

1. **Lease idempotence** — losing a lease (expiry or release) and
   re-claiming, any number of times, never burns the attempt budget and
   never changes what the queue ultimately serves.
2. **Replay composition** — journalling a prefix, reopening the ledger and
   executing the suffix yields the same fold sequence as one uninterrupted
   run: ``replay(prefix) . resume == full``.
3. **Poison finality** — once a poison verdict is journalled and confirmed,
   that shard is never served for execution again, in this run or any
   resumed one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.runtime.workqueue import ShardLedger, WorkQueue
from repro.llm.faults import TriggerPoint
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


def drain(queue, ledger, fail_indexes=frozenset(), worker="w"):
    """Run the queue to completion; returns the folded (index, kind) list."""
    folded = []
    while True:
        kind, lease = queue.next_task(worker)
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
            queue.confirm_poison(lease)
            continue
        if lease.index in fail_indexes:
            verdict, attempts, _ = queue.fail(lease, "boom")
            if verdict == "poison":
                ledger.record_fail(lease.index, attempts, "op", "boom")
                queue.confirm_poison(lease)
            elif verdict == "retry":
                ledger.record_fail(lease.index, attempts, "op", "boom")
        else:
            ledger.record_shard(
                lease.index,
                1,
                [("op", _Scope([]), _Outcome())],
                [lease.index],
            )
            queue.complete(lease)


@settings(max_examples=40, deadline=None)
@given(
    n_shards=st.integers(min_value=1, max_value=8),
    losses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.booleans()),
        max_size=12,
    ),
)
def test_lease_loss_and_reclaim_is_idempotent(tmp_path_factory, n_shards, losses):
    """Any schedule of releases/injected expiries never burns attempts."""
    tmp_path = tmp_path_factory.mktemp("lease")
    queue, ledger = fresh_queue(tmp_path, [[i] for i in range(n_shards)])
    try:
        loss_plan = [(i % n_shards, by_release) for i, by_release in losses]
        completed = []
        while True:
            kind, lease = queue.next_task("w")
            if kind == "done":
                break
            if kind == "retry":
                shard = queue.next_foldable()
                while shard is not None:
                    queue.mark_folded(shard.index)
                    shard = queue.next_foldable()
                continue
            assert kind == "lease"
            if loss_plan and loss_plan[0][0] == lease.index:
                _, by_release = loss_plan.pop(0)
                if by_release:
                    assert queue.release(lease)
                else:
                    # Simulate expiry: the holder's lease dies underneath it.
                    with queue._cond:
                        queue._shards[lease.index].deadline = queue.clock.now
                    assert not queue.heartbeat(lease)
                    assert not queue.complete(lease)
                    queue.release(lease)  # holder hands it back
                # Whatever happened, the shard is served again, fresh.
                continue
            assert lease.attempt == 1  # lease losses never burn the budget
            ledger.record_shard(
                lease.index, 1, [("op", _Scope([]), _Outcome())], [lease.index]
            )
            queue.complete(lease)
            completed.append(lease.index)
        assert sorted(completed) == list(range(n_shards))
        assert queue.shard_failures == 0
        assert queue.poisoned == 0
    finally:
        ledger.close()


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
        kind, lease = queue.next_task("w")
        if kind == "done":
            break
        if kind == "retry":
            shard = queue.next_foldable()
            while shard is not None:
                queue.mark_folded(shard.index)
                shard = queue.next_foldable()
            continue
        assert kind == "lease"
        if lease.index == poison_shard:
            serves[poison_shard] += 1
            verdict, attempts, _ = queue.fail(lease, "boom")
            ledger.record_fail(lease.index, attempts, "op", "boom")
            if verdict == "poison":
                queue.confirm_poison(lease)
            continue
        ledger.record_shard(
            lease.index, 1, [("op", _Scope([]), _Outcome())], [lease.index]
        )
        queue.complete(lease)
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
            kind, lease = queue.next_task("w")
            if kind == "done":
                break
            if kind == "retry":
                shard = queue.next_foldable()
                while shard is not None:
                    queue.mark_folded(shard.index)
                    shard = queue.next_foldable()
                continue
            assert kind != "lease", "poisoned shard re-executed after commit"
            assert kind == "poison" and lease.index == poison_shard
            queue.confirm_poison(lease)
        ledger.close()


@settings(max_examples=25, deadline=None)
@given(hits=st.integers(min_value=1, max_value=6))
def test_injected_expiry_reclaim_serves_every_shard_once(tmp_path_factory, hits):
    """An injected born-expired lease is re-served without attempt burn."""
    tmp_path = tmp_path_factory.mktemp("expiry")
    fault = TriggerPoint("lease:granted", hits=hits)
    queue, ledger = fresh_queue(
        tmp_path, [[i] for i in range(4)], name="run", lease_fault=fault
    )
    completed = []
    while True:
        kind, lease = queue.next_task("w")
        if kind == "done":
            break
        if kind == "retry":
            shard = queue.next_foldable()
            while shard is not None:
                queue.mark_folded(shard.index)
                shard = queue.next_foldable()
            continue
        if not queue.heartbeat(lease):
            queue.release(lease)
            continue
        assert lease.attempt == 1
        ledger.record_shard(
            lease.index, 1, [("op", _Scope([]), _Outcome())], [lease.index]
        )
        queue.complete(lease)
        completed.append(lease.index)
    assert sorted(completed) == [0, 1, 2, 3]
    assert queue.shard_failures == 0
    ledger.close()
