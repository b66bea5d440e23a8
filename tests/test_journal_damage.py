"""One damaged-line rule for all four journals.

The run journal, the shard ledger, the serve job store and the prompt
cache's journal are one primitive (:class:`repro._jsonl.CheckpointJournal`)
and treat damage alike: a newline-terminated line that does not decode is
skipped, counted and left in the file, and the lines after it still load;
bytes after the last newline are a torn tail, truncated and counted, so the
next append starts a clean line.  Each owner is driven through its own
public API; every journal below holds three records, keyed 0, 1 and 2.
"""

from __future__ import annotations

import pytest

from repro.core.runtime.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    RunCheckpoint,
)
from repro.core.runtime.workqueue import ShardLedger
from repro.llm.cache import PromptCache
from repro.llm.service import LLMService
from repro.serve.store import JobStore
from tests.llm.test_cache import key, response
from tests.serve.conftest import make_spec


class _Scope:
    def __init__(self):
        self.records = []
        self.elapsed = 0.0


class _Outcome:
    def __init__(self, outputs):
        self.outputs = outputs
        self.quarantine = []
        self.degraded = 0


class _Run:
    def open(self, path):
        checkpoint = RunCheckpoint(path)
        checkpoint.begin("fp", LLMService())
        return checkpoint

    def add(self, checkpoint, index):
        checkpoint.operator_context(0, "op").record_chunk(
            index, [index], _Scope(), _Outcome([index])
        )

    def loaded(self, checkpoint):
        return sorted(checkpoint.operator_context(0, "op").replayable_chunks([1] * 4))


class _Ledger:
    def open(self, path):
        ledger = ShardLedger(path)
        ledger.begin("fp", LLMService())
        return ledger

    def add(self, ledger, index):
        ledger.record_shard(index, 1, [("op", _Scope(), _Outcome([]))], [index])

    def loaded(self, ledger):
        return [index for index in range(4) if ledger.has_shard(index)]


class _Jobs:
    def open(self, path):
        return JobStore(path)

    def add(self, store, index):
        assert store.submit(make_spec("er")).job_id == f"job-{index + 1:04d}"

    def loaded(self, store):
        return [int(job.job_id[-4:]) - 1 for job in store.jobs()]


class _Cache:
    def open(self, path):
        return PromptCache(path=path)

    def add(self, cache, index):
        cache.put(key(f"prompt {index}"), response(str(index)))

    def loaded(self, cache):
        return [int(answer.text) for _, answer in cache.entries()]


KINDS = {
    "run-journal": _Run(),
    "shard-ledger": _Ledger(),
    "job-store": _Jobs(),
    "prompt-cache": _Cache(),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def filled(kind, path) -> bytes:
    owner = kind.open(path)
    for index in range(3):
        kind.add(owner, index)
    owner.close()
    return path.read_bytes()


def test_a_damaged_middle_line_is_skipped_counted_and_kept(kind, tmp_path):
    path = tmp_path / "journal.jsonl"
    lines = filled(kind, path).splitlines(keepends=True)
    lines[-2] = b"#" + lines[-2][1:]  # record 1: no longer JSON
    damaged = b"".join(lines)
    path.write_bytes(damaged)

    owner = kind.open(path)
    assert kind.loaded(owner) == [0, 2]
    assert (owner.journal.corrupt_lines, owner.journal.torn_bytes) == (1, 0)
    assert path.read_bytes() == damaged  # skipped, not cut
    kind.add(owner, 3)
    owner.close()

    reopened = kind.open(path)
    assert kind.loaded(reopened) == [0, 2, 3]
    assert reopened.journal.corrupt_lines == 1
    reopened.close()


def test_an_unterminated_tail_is_truncated_and_counted(kind, tmp_path):
    path = tmp_path / "journal.jsonl"
    clean = filled(kind, path)
    path.write_bytes(clean + b'{"half')

    owner = kind.open(path)
    assert kind.loaded(owner) == [0, 1, 2]
    assert (owner.journal.corrupt_lines, owner.journal.torn_bytes) == (0, 6)
    assert path.read_bytes() == clean
    kind.add(owner, 3)  # lands on a clean line
    owner.close()

    reopened = kind.open(path)
    assert kind.loaded(reopened) == [0, 1, 2, 3]
    assert (reopened.journal.corrupt_lines, reopened.journal.torn_bytes) == (0, 0)
    reopened.close()


@pytest.mark.parametrize("owner", ["run-journal", "shard-ledger"])
def test_a_damaged_header_is_refused(owner, tmp_path):
    kind = KINDS[owner]
    path = tmp_path / "journal.jsonl"
    lines = filled(kind, path).splitlines(keepends=True)
    path.write_bytes(b"#" + b"".join(lines)[1:])
    with pytest.raises(CheckpointError, match="header"):
        kind.open(path)


def test_a_commit_missing_a_recordless_chunk_line_is_refused(tmp_path):
    """An ``op`` line that keeps its outputs in its chunk lines needs all of
    them; the record count cannot tell when a chunk paid for nothing."""
    path = tmp_path / "journal.jsonl"
    run = KINDS["run-journal"]
    checkpoint = run.open(path)
    context = checkpoint.operator_context(0, "op")
    context.replayable_chunks([1, 1, 1])
    for index in range(3):
        context.record_chunk(index, [index], _Scope(), _Outcome([index]))
        context.note_chunk(
            index, records=1, outputs=1, quarantined=0, degraded=0, replayed=False
        )
    checkpoint.commit_operator(
        0,
        "op",
        records=[],
        clock_end=0.0,
        outputs=[0, 1, 2],
        quarantine=[],
        stats_delta={},
        tree_degraded=0,
        chunk_summaries=context.chunk_summaries,
        service=LLMService(),
        records_in_chunks=context.records_in_chunks,
        outputs_in_chunks=context.outputs_in_chunks,
    )
    checkpoint.close()
    assert run.open(path).operator_replay(0, "op").outputs == [0, 1, 2]

    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"#" + lines[2][1:]  # chunk 1
    path.write_bytes(b"".join(lines))
    with pytest.raises(CheckpointMismatchError, match="chunk"):
        run.open(path).operator_replay(0, "op")
