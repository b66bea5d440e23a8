"""Unit tests for the durable shard work-queue and its ledger."""

from __future__ import annotations

import pytest

from repro.core.runtime.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    ReplayedValue,
)
from repro.core.runtime.workqueue import (
    PoisonInfo,
    ShardLedger,
    WorkQueue,
)
from repro.llm.service import LLMService


class _Scope:
    """Minimal stand-in for a CallScope in ledger writes."""

    def __init__(self, records=(), elapsed=0.0):
        self.records = list(records)
        self.elapsed = elapsed


class _Outcome:
    """Minimal stand-in for a ChunkOutcome in ledger writes."""

    def __init__(self, quarantine=(), degraded=0):
        self.quarantine = list(quarantine)
        self.degraded = degraded


def make_ledger(tmp_path, name="ledger.jsonl", resume=True, fingerprint="fp"):
    ledger = ShardLedger(tmp_path / name, resume=resume)
    ledger.begin(fingerprint, LLMService())
    return ledger


def make_queue(tmp_path, chunks, ledger=None, **kwargs):
    ledger = ledger or make_ledger(tmp_path)
    kwargs.setdefault("window", 8)
    return WorkQueue(iter(chunks), ledger=ledger, **kwargs), ledger


class TestShardLedger:
    def test_fresh_header_then_resume(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        assert again.stats.resumed
        again.close()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        make_ledger(tmp_path).close()
        other = ShardLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(CheckpointMismatchError):
            other.begin("different", LLMService())

    def test_resume_false_discards(self, tmp_path):
        make_ledger(tmp_path).close()
        fresh = ShardLedger(tmp_path / "ledger.jsonl", resume=False)
        fresh.begin("different", LLMService())  # no mismatch: file wiped
        assert not fresh.stats.resumed
        fresh.close()

    def test_begin_runs_once(self, tmp_path):
        ledger = make_ledger(tmp_path)
        with pytest.raises(CheckpointError):
            ledger.begin("fp", LLMService())

    def test_shard_round_trip(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_shard(
            0, 3, [("op", _Scope(elapsed=1.5), _Outcome())], [True, False, True]
        )
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        assert again.has_shard(0)
        assert again.shard_n_records(0) == 3
        assert again.shard_replayable(0)
        replay = again.shard_replay(0)
        assert replay.outputs == [True, False, True]
        assert replay.ops[0].name == "op"
        assert replay.ops[0].elapsed == 1.5
        again.close()

    def test_unserializable_outputs_not_replayable(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_shard(0, 1, [("op", _Scope(), _Outcome())], [object()])
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        assert again.has_shard(0)
        assert not again.shard_replayable(0)
        again.close()

    def test_fail_lines_carry_attempts(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_fail(2, 1, "op", "boom")
        ledger.record_fail(2, 2, "op", "boom")
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        assert again.attempts(2) == 2
        assert again.last_fail(2) == ("op", "boom")
        again.close()

    def test_attempts_zero_once_shard_completes(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_fail(0, 1, "op", "boom")
        ledger.record_shard(0, 1, [("op", _Scope(), _Outcome())], [1])
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        assert again.attempts(0) == 0
        again.close()

    def test_poison_round_trip(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_poison(
            PoisonInfo(
                index=1, n_records=2, attempts=3, op="op", error="bad",
                records=[{"k": 1}, {"k": 2}],
            )
        )
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        info = again.poison(1)
        assert info is not None
        assert (info.n_records, info.attempts, info.op, info.error) == (
            2, 3, "op", "bad",
        )
        assert all(isinstance(r, ReplayedValue) for r in info.records)
        assert repr(info.records[0]) == repr({"k": 1})
        again.close()

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_shard(0, 1, [("op", _Scope(), _Outcome())], [1])
        ledger.close()
        with open(tmp_path / "ledger.jsonl", "ab") as handle:
            handle.write(b'{"type": "shard", "index": 1, "n_re')
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        assert again.stats.torn_bytes > 0
        assert again.has_shard(0)
        assert not again.has_shard(1)
        again.close()


class TestWorkQueueLifecycle:
    def test_claims_in_order_and_drains(self, tmp_path):
        queue, _ = make_queue(tmp_path, [[1, 2], [3, 4], [5]])
        seen = []
        while True:
            kind, index = queue.next_task()
            if kind == "done":
                break
            if kind == "retry":
                shard = queue.next_foldable()
                queue.mark_folded(shard.index)
                continue
            seen.append(index)
            queue.complete(index)
        assert seen == [0, 1, 2]
        assert queue.n_shards == 3

    def test_fold_order_enforced(self, tmp_path):
        queue, _ = make_queue(tmp_path, [[1], [2]])
        assert queue.next_task() == ("run", 0)
        assert queue.next_task() == ("run", 1)
        queue.complete(0)
        queue.complete(1)
        with pytest.raises(RuntimeError):
            queue.mark_folded(1)
        queue.mark_folded(0)
        queue.mark_folded(1)

    def test_abort_wakes_everyone(self, tmp_path):
        queue, _ = make_queue(tmp_path, [[1]])
        queue.abort()
        assert queue.next_task() == ("done", None)
        assert queue.aborted

    def test_source_growth_under_reused_ledger_rejected(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_fail(5, 1, "op", "boom")
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        queue, _ = make_queue(tmp_path, [[1], [2]], ledger=again)
        _, index = queue.next_task()
        queue.complete(index)
        queue.mark_folded(0)
        with pytest.raises(CheckpointMismatchError):
            while True:
                kind, index = queue.next_task()
                if kind == "run":
                    queue.complete(index)
                elif kind == "retry":
                    queue.mark_folded(queue.next_foldable().index)

    def test_shard_geometry_validated_on_resume(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_shard(0, 4, [("op", _Scope(), _Outcome())], [1])
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        queue, _ = make_queue(tmp_path, [[1, 2]], ledger=again)
        with pytest.raises(CheckpointMismatchError):
            queue.next_task()


class TestWorkQueueBackpressure:
    def test_window_caps_materialization(self, tmp_path):
        queue, _ = make_queue(
            tmp_path, [[i] for i in range(6)], window=2
        )
        queue.next_task()
        queue.next_task()
        assert queue._next_index == 2
        with queue._cond:
            assert not queue._materialize_locked()  # window full
        queue.complete(0)
        queue.mark_folded(0)
        with queue._cond:
            assert queue._materialize_locked()  # frontier advanced

    def test_held_records_bounded_by_window_times_chunk(self, tmp_path):
        # The window is the one memory bound: 40 two-record shards through a
        # window of 3 never leave more than 3 x 2 source records waiting.
        queue, _ = make_queue(tmp_path, [[i, -i] for i in range(40)], window=3)
        while True:
            kind, index = queue.next_task()
            if kind == "done":
                break
            if kind == "retry":
                queue.mark_folded(queue.next_foldable().index)
                continue
            assert queue.records(index) == [index, -index]
            queue.complete(index)
        assert queue.n_shards == 40
        assert 0 < queue.inflight_peak_records <= 3 * 2
        assert queue._shards == {}  # records went with their entries

    def test_replayed_and_poisoned_shards_hold_no_records(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_shard(0, 2, [("op", _Scope(), _Outcome())], [1, 2])
        ledger.record_poison(
            PoisonInfo(
                index=1, n_records=2, attempts=3, op="op", error="bad",
                records=[3, 4],
            )
        )
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        queue, _ = make_queue(tmp_path, [[1, 2], [3, 4], [5, 6]], ledger=again)
        assert queue.next_task() == ("run", 2)  # the only live shard
        assert queue.records(2) == [5, 6]
        with queue._cond:
            assert queue._shards[0].records is None  # replay: discarded
            assert queue._shards[1].records is None  # poison: discarded
        assert queue.inflight_peak_records == 2


class TestWorkQueueFailure:
    def test_retry_backoff_then_poison(self, tmp_path):
        queue, _ = make_queue(tmp_path, [[1]], max_attempts=2)
        assert queue.next_task() == ("run", 0)
        assert queue.fail(0) == ("retry", 1)
        assert queue.next_task() == ("run", 0)  # pending again at once
        assert queue.fail(0) == ("poison", 2)
        queue.confirm_poison(0)
        shard = queue.next_foldable()
        assert shard.status == "poisoned"
        queue.mark_folded(0)
        assert queue.next_task() == ("done", None)
        assert queue.poisoned == 1
        assert queue.shard_failures == 2

    def test_retry_is_handed_what_the_source_produced(self, tmp_path):
        queue, _ = make_queue(tmp_path, [[{"k": 1}, {"k": (2, "b")}]])
        queue.next_task()
        first = queue.records(0)
        assert queue.fail(0) == ("retry", 1)
        assert queue.next_task() == ("run", 0)
        assert queue.records(0) == [{"k": 1}, {"k": (2, "b")}]
        assert queue.records(0) is first  # attempts share the objects
        queue.complete(0)
        queue.mark_folded(0)
        assert queue.records(0) is None  # gone with the folded entry

    def test_carried_budget_poisons_without_reexecution(self, tmp_path):
        ledger = make_ledger(tmp_path)
        ledger.record_fail(0, 1, "op", "boom")
        ledger.record_fail(0, 2, "op", "boom")
        ledger.close()
        again = ShardLedger(tmp_path / "ledger.jsonl")
        again.begin("fp", LLMService())
        queue, _ = make_queue(tmp_path, [[1]], ledger=again, max_attempts=2)
        assert queue.next_task() == ("poison", 0)  # budget spent in a prior run
        queue.confirm_poison(0)
