"""One journal append per paid batch: one write, one flush, whole lines.

``CheckpointJournal.append`` takes a batch of records, and the service
inserts a paid batch's answers — or a resume's re-warmed ones — into the
prompt cache with one call, so the cache journal sees one append per
batch, written as one record block line.  These tests pin the system
calls of a batch, what a crash inside one leaves behind, the lines that
only the stdlib (a >64-bit integer) or only ASCII (a lone surrogate) can
spell, and that the compaction trigger counts every entry of a batch.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro._jsonl as jsonl
from repro._jsonl import CheckpointJournal
from repro.core.compiler.registry import render_pair
from repro.core.modules.mapping import MapModule
from repro.core.runtime.checkpoint import RunCheckpoint
from repro.core.runtime.system import LinguaManga
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.cache import CacheJournal, CacheKey, PromptCache, key_digest
from repro.llm.faults import CrashInjected
from repro.llm.service import LLMService
from repro.tasks.entity_resolution import run_lingua_manga_er
from tests.conftest import assert_reports_identical
from tests.core.test_render_once import CountingLLM, ScriptedProvider, records
from tests.llm.test_cache import key, response


class CountingHandle:
    """A journal's append handle that notes each ``write`` and ``flush``."""

    def __init__(self, handle):
        self.handle = handle
        self.calls: list[tuple] = []

    def write(self, data: bytes) -> int:
        self.calls.append(("write", data.count(b"\n"), len(data)))
        return self.handle.write(data)

    def flush(self) -> None:
        self.calls.append(("flush",))
        self.handle.flush()

    def fileno(self) -> int:
        return self.handle.fileno()

    def close(self) -> None:
        self.handle.close()


@pytest.fixture
def appends(monkeypatch):
    """``path -> CountingHandle`` for every append handle opened from here on."""
    handles: dict[Path, CountingHandle] = {}
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        if mode == "ab":
            handle = handles[self] = CountingHandle(handle)
        return handle

    monkeypatch.setattr(Path, "open", counting_open)
    return handles


class TestOneWritePerBatch:
    def test_a_paid_batch_of_20_is_one_write_and_one_flush(self, tmp_path, appends):
        path = tmp_path / "cache.jsonl"
        service = LLMService(ScriptedProvider(), cache_path=path)
        outcome = MapModule("map", CountingLLM(service)).apply_chunk(records(20))
        assert outcome.outputs == [True] * 20
        # one block line for the batch
        assert [call[:2] for call in appends[path].calls] == [("write", 1), ("flush",)]
        assert len(CacheJournal(path).load()) == service.usage().served_calls == 20

    def test_a_resume_rewarms_the_cache_with_one_write(self, tmp_path, appends):
        paid = LLMService(ScriptedProvider())
        MapModule("map", CountingLLM(paid)).apply_chunk(records(20))
        path = tmp_path / "cache.jsonl"
        resumed = LLMService(ScriptedProvider(), cache_path=path)
        assert resumed.restore_from_records(paid.records) == 20
        assert [call[:2] for call in appends[path].calls] == [("write", 1), ("flush",)]
        assert resumed.cache.entries() == paid.cache.entries()

    def test_a_batch_past_the_slice_is_written_in_whole_line_slices(
        self, tmp_path, appends
    ):
        path = tmp_path / "journal.jsonl"
        batch = [{"n": n, "pad": "x" * 2000} for n in range(100)]
        CheckpointJournal(path).append(*batch)
        *writes, flush = appends[path].calls
        assert flush == ("flush",) and len(writes) == 4
        assert all(size <= jsonl._WRITE_SLICE for _, _, size in writes)
        assert sum(lines for _, lines, _ in writes) == 100
        journal = CheckpointJournal(path)
        assert journal.load() == batch and journal.lines_held == 100


class TestInsideABatch:
    def test_a_torn_group_write_truncates_to_its_last_whole_line_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """Killed mid-way through a paid batch's write: the torn block is
        dropped whole, the lines before it load, the tail is cut, and the
        resumed run's report is the uninterrupted run's, byte for byte."""
        data = generate_er_dataset("beer", seed=7, n_entities=60)
        baseline = run_lingua_manga_er(LinguaManga(), data, workers=1)
        cache_path, wal = tmp_path / "cache.jsonl", tmp_path / "run.wal"
        real_append = CacheJournal.append
        appended: list[int] = []
        torn: dict = {}

        def tearing_append(journal, *entries):
            before = journal.path.stat().st_size if journal.path.exists() else 0
            real_append(journal, *entries)
            appended.append(len(entries))
            if len(appended) < 2 or len(entries) < 3:  # tear a later paid batch
                return
            written = journal.path.read_bytes()
            cut = before + (len(written) - before) // 2
            torn.update(kept=written[:cut], before=before, held=sum(appended[:-1]))
            with journal.path.open("r+b") as handle:
                handle.truncate(cut)
            raise CrashInjected("cache:group-write", 1)

        monkeypatch.setattr(CacheJournal, "append", tearing_append)
        with pytest.raises(CrashInjected):
            run_lingua_manga_er(
                LinguaManga(cache_path=str(cache_path)),
                data,
                workers=1,
                checkpoint=RunCheckpoint(wal),
            )
        monkeypatch.setattr(CacheJournal, "append", real_append)

        kept = torn["kept"]
        whole = kept[: kept.rindex(b"\n") + 1]
        assert len(kept) > len(whole)  # the cut is inside a line
        assert whole == kept[: torn["before"]] != b""  # the torn block goes whole
        journal = CacheJournal(cache_path)
        assert len(journal.load()) == journal.entries_held == torn["held"]
        assert journal.lines_held == whole.count(b"\n")
        assert (journal.torn_bytes, journal.corrupt_lines) == (len(kept) - len(whole), 0)
        assert cache_path.read_bytes() == whole

        resumed = run_lingua_manga_er(
            LinguaManga(cache_path=str(cache_path)),
            data,
            workers=1,
            checkpoint=RunCheckpoint(wal),
        )
        assert_reports_identical(baseline.report, resumed.report)

    def test_a_stdlib_line_inside_a_group_write_round_trips(self, tmp_path, either_codec):
        path = tmp_path / "cache.jsonl"
        huge = CacheKey("sim", "", "p", 2**64 + 1)
        batch = [(key("a"), response("a")), (huge, response("h")), (key("b"), response("b"))]
        CacheJournal(path).append(*batch[:2])
        CacheJournal(path).append(batch[2])
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2  # one block line per append
        if jsonl._orjson is not None:
            assert [line[:1] == b" " for line in lines] == [True, False]
        assert list(CacheJournal(path).load().items()) == batch
        assert PromptCache(path=path).entries() == batch

    def test_the_compaction_trigger_counts_every_line_of_a_batch(self, tmp_path):
        """...by the entries it holds: one block line of 130 entries."""
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path, max_entries=20)
        batch = [(key(f"p{i}"), response(str(i))) for i in range(130)]
        assert len(cache.put_many(batch)) == 130
        # 130 entries for 20 live ones is past max(128, 4 * 20): compacted.
        assert cache.journal.entries_held == len(cache) == 20
        assert cache.journal.lines_held == 1
        assert cache.stats.evictions == 110
        assert list(CacheJournal(path).load().items()) == batch[-20:]

    def test_a_batch_under_the_trigger_is_not_compacted(self, tmp_path):
        cache = PromptCache(path=tmp_path / "cache.jsonl", max_entries=20)
        cache.put_many([(key(f"p{i}"), response(str(i))) for i in range(128)])
        assert cache.journal.entries_held == 128 and len(cache) == 20
        assert cache.journal.lines_held == 1


#: A prompt with a lone surrogate, as JSON input spells it and
#: ``render_pair`` keeps it.
SURROGATE_PROMPT = "Pair: " + render_pair(
    json.loads('{"left": {"name": "\\ud800"}, "right": {"name": "x"}}')
)


class TestLoneSurrogate:
    def test_a_paid_prompt_is_journalled_and_reloads(self, tmp_path, either_codec):
        path = tmp_path / "cache.jsonl"
        service = LLMService(ScriptedProvider(), cache_path=path)
        assert service.complete(SURROGATE_PROMPT) == "Yes."
        assert service.usage().served_calls == 1
        service.cache.close()
        warm = LLMService(ScriptedProvider(), cache_path=path)
        assert [k.prompt for k, _ in warm.cache.entries()] == [SURROGATE_PROMPT]
        assert warm.complete(SURROGATE_PROMPT) == "Yes."
        assert warm.usage().served_calls == 0 and warm.usage().cached_calls == 1
        assert len(key_digest(warm.cache.entries()[0][0])) == 16

    def test_its_line_alone_is_escaped(self, tmp_path, either_codec):
        plain = [(key("a"), response("é")), (key("b"), response("b"))]
        odd = (key(SURROGATE_PROMPT), response("c"))
        for name, batches in (
            ("plain", [plain[:1], plain[1:]]),
            ("mixed", [plain[:1], [odd, plain[1]], plain[1:]]),
        ):
            for batch in batches:
                CacheJournal(tmp_path / f"{name}.jsonl").append(*batch)
        clean = (tmp_path / "plain.jsonl").read_bytes().splitlines(keepends=True)
        mixed = (tmp_path / "mixed.jsonl").read_bytes().splitlines(keepends=True)
        assert [mixed[0], mixed[2]] == clean
        # the block holding it is escaped whole, the others not at all
        assert mixed[1].startswith(b" ") and mixed[1].isascii()
        assert not clean[0].isascii()
        assert list(CacheJournal(tmp_path / "mixed.jsonl").load().items()) == [plain[0], odd, plain[1]]

    def test_a_run_journal_line_holding_one_round_trips(self, tmp_path, either_codec):
        journal = CheckpointJournal(tmp_path / "run.jsonl")
        journal.append({"prompt": SURROGATE_PROMPT}, {"n": 2**70})
        assert journal.load() == [{"prompt": SURROGATE_PROMPT}, {"n": 2**70}]
