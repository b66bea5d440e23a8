"""Unit tests for the shard ledger, the in-order pool and shard lifecycle."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.core.runtime.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    ReplayedValue,
)
from repro.core.runtime.scheduler import ordered_map
from repro.core.runtime.workqueue import PoisonInfo, ShardLedger
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.service import LLMService
from tests.runtime.test_streaming_executor import Scripted, run_toy


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
        seen = []

        def work(chunk):
            seen.append(list(chunk))
            return chunk

        report = run_toy([1, 2, 3, 4, 5], tmp_path, middle=Scripted(work))
        assert seen == [[1, 2], [3, 4], [5]]
        assert report.recovery["shards"] == 3
        assert next(iter(report.outputs.values())) == [1, 2, 3, 4, 5]

    def test_fold_order_enforced(self):
        # Item 0 finishes last; the map still yields it first.
        finished = []
        others_done = threading.Event()

        def fn(item):
            if item == 0:
                assert others_done.wait(timeout=10)
            finished.append(item)
            if len(finished) == 3:
                others_done.set()
            return item

        assert list(ordered_map(fn, range(4), workers=4, window=4)) == [0, 1, 2, 3]
        assert finished[-1] == 0

    def test_abort_wakes_everyone(self):
        # A raise stops the map: nothing more is pulled, and every task
        # already submitted has finished by the time the error surfaces.
        pulled, finished = [], []

        def items():
            for item in range(100):
                pulled.append(item)
                yield item

        def fn(item):
            if item == 1:
                raise RuntimeError("boom")
            time.sleep(0.01)
            finished.append(item)
            return item

        with pytest.raises(RuntimeError, match="boom"):
            list(ordered_map(fn, items(), workers=2, window=2))
        assert pulled == [0, 1, 2]
        assert sorted(finished) == [0, 2]

    def test_source_growth_under_reused_ledger_rejected(self, tmp_path):
        run_toy([1, 2, 3, 4], tmp_path)
        with pytest.raises(CheckpointMismatchError, match="mentions shard 1"):
            run_toy([1, 2], tmp_path)

    def test_shard_geometry_validated_on_resume(self, tmp_path):
        run_toy([1, 2, 3, 4], tmp_path, name="shard.wal")
        with pytest.raises(CheckpointMismatchError, match="shard 1 covered 2"):
            run_toy([1, 2, 3], tmp_path, name="shard.wal")
        run_toy([1, 2, "POISON", 4], tmp_path, name="poison.wal")
        with pytest.raises(CheckpointMismatchError, match="poison 1 covered 2"):
            run_toy([1, 2, "POISON"], tmp_path, name="poison.wal")


class TestWorkQueueBackpressure:
    def test_window_caps_materialization(self):
        pulled = []

        def items():
            for item in range(6):
                pulled.append(item)
                yield item

        results = ordered_map(lambda item: item, items(), workers=2, window=2)
        assert next(results) == 0
        assert pulled == [0, 1]  # window full: nothing pulled past it
        assert next(results) == 1
        assert pulled == [0, 1, 2]  # one pull per item the consumer takes
        assert list(results) == [2, 3, 4, 5]

    def test_held_records_bounded_by_window_times_chunk(self):
        # Stress: more workers than cores and a short switch interval; the
        # records pulled and not yet consumed never exceed window x chunk,
        # and results still arrive in item order.
        held = peak = 0
        consumed = []

        def chunks():
            nonlocal held, peak
            for index in range(300):
                held += 2
                peak = max(peak, held)
                yield [index, -index]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunk in ordered_map(list, chunks(), workers=8, window=3):
                consumed.append(chunk[0])
                held -= len(chunk)
        finally:
            sys.setswitchinterval(interval)
        assert consumed == list(range(300))
        assert 0 < peak <= 3 * 2

    def test_replayed_and_poisoned_shards_hold_no_records(self, tmp_path):
        records = [1, 2, "POISON", 4, 5, 6]
        # Shard 0 journals, shard 1 is poisoned, shard 2 dies unjournalled.
        with pytest.raises(CrashInjected):
            run_toy(records, tmp_path, crash=CrashPoint("shard:executed", hits=2))
        resumed = run_toy(records, tmp_path)
        assert resumed.recovery["replayed_shards"] == 1
        assert resumed.recovery["quarantined_shards"] == 1
        assert resumed.recovery["inflight_peak_records"] == 2  # the live shard only


class TestWorkQueueFailure:
    def test_retry_backoff_then_poison(self, tmp_path):
        calls = []

        def work(chunk):
            calls.append(chunk[0])
            if chunk[0] == "bad":
                raise RuntimeError("boom")
            return chunk

        report = run_toy(["bad", 1, 2, 3], tmp_path, middle=Scripted(work))
        assert calls == ["bad", "bad", 2]  # retried at once, then poisoned
        assert report.recovery["shard_failures"] == 2
        assert report.recovery["quarantined_shards"] == 1
        lines = (tmp_path / "run.wal").read_text().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds == ["header", "fail", "fail", "poison", "shard"]

    def test_retry_is_handed_what_the_source_produced(self, tmp_path):
        records = [{"k": 1}, {"k": (2, "b")}]
        seen = []

        def work(chunk):
            seen.append(chunk)
            raise RuntimeError("boom")

        report = run_toy(records, tmp_path, middle=Scripted(work))
        assert seen == [records, records]
        assert seen[0] is seen[1]  # attempts share the one list
        assert report.quarantine[0].record is records[0]  # and so does the verdict

    def test_carried_budget_poisons_without_reexecution(self, tmp_path):
        calls = []

        def work(chunk):
            calls.append(list(chunk))
            raise RuntimeError("boom")

        # Two attempts fail and journal, the crash lands before the third.
        with pytest.raises(CrashInjected):
            run_toy(
                [1, 2], tmp_path, middle=Scripted(work), max_attempts=3,
                crash=CrashPoint("shard:claimed", hits=3),
            )
        assert len(calls) == 2
        report = run_toy([1, 2], tmp_path, middle=Scripted(work), max_attempts=2)
        assert len(calls) == 2  # budget spent in a prior run: not re-executed
        assert [q.error for q in report.quarantine] == [
            "shard 0 poisoned after 2 attempt(s): boom"
        ] * 2
