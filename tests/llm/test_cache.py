"""The prompt cache: keys, LRU, journal."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.llm.cache import CacheJournal, CacheKey, PromptCache
from repro.llm.providers import LLMResponse, SimulatedProvider
from repro.llm.service import LLMService


def key(
    prompt: str,
    version: str = "",
    provider: str = "sim",
    max_tokens: int = 64,
    namespace: str = "",
):
    return CacheKey(
        provider=provider,
        version=version,
        prompt=prompt,
        max_tokens=max_tokens,
        namespace=namespace,
    )


def response(text: str) -> LLMResponse:
    return LLMResponse(text=text, prompt_tokens=3, completion_tokens=2, model="sim")


class TestCacheKey:
    def test_same_prompt_different_version_does_not_collide(self):
        cache = PromptCache()
        cache.put(key("p", version="v1"), response("one"))
        assert cache.get(key("p", version="v2")) is None
        assert cache.get(key("p", version="v1")).text == "one"

    def test_same_prompt_different_provider_does_not_collide(self):
        cache = PromptCache()
        cache.put(key("p", provider="a"), response("one"))
        assert cache.get(key("p", provider="b")) is None

    def test_same_prompt_different_max_tokens_does_not_collide(self):
        cache = PromptCache()
        cache.put(key("p", max_tokens=8), response("short"))
        assert cache.get(key("p", max_tokens=256)) is None


class TestLRUEviction:
    def test_oldest_entry_evicted_first(self):
        cache = PromptCache(max_entries=3)
        for name in ("a", "b", "c"):
            cache.put(key(name), response(name))
        cache.put(key("d"), response("d"))
        assert cache.get(key("a")) is None
        assert cache.get(key("b")).text == "b"
        assert cache.stats.evictions == 1

    def test_get_refreshes_recency(self):
        cache = PromptCache(max_entries=3)
        for name in ("a", "b", "c"):
            cache.put(key(name), response(name))
        cache.get(key("a"))  # now "b" is the LRU entry
        cache.put(key("d"), response("d"))
        assert cache.get(key("a")).text == "a"
        assert cache.get(key("b")) is None

    def test_reput_refreshes_recency(self):
        cache = PromptCache(max_entries=2)
        cache.put(key("a"), response("a"))
        cache.put(key("b"), response("b"))
        cache.put(key("a"), response("a2"))  # refresh, not duplicate
        cache.put(key("c"), response("c"))
        assert cache.get(key("b")) is None
        assert cache.get(key("a")).text == "a2"

    def test_hit_miss_counters(self):
        cache = PromptCache()
        cache.put(key("a"), response("a"))
        cache.get(key("a"))
        cache.get(key("missing"))
        assert cache.stats.exact_hits == 1
        assert cache.stats.misses == 1


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        cache.put(key("p1", version="v1"), response("one"))
        cache.put(key("p2"), response("two"))

        reloaded = PromptCache(path=path)
        assert reloaded.stats.loaded == 2
        assert reloaded.get(key("p1", version="v1")).text == "one"
        assert reloaded.get(key("p2")).text == "two"

    def test_later_lines_win(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        cache.put(key("p"), response("old"))
        cache.put(key("p"), response("new"))
        assert PromptCache(path=path).get(key("p")).text == "new"

    def test_truncated_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        cache.put(key("good"), response("kept"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"provider": "sim", "version": "", "prom')  # crash mid-append

        reloaded = PromptCache(path=path)
        assert reloaded.get(key("good")).text == "kept"
        fragment = len('{"provider": "sim", "version": "", "prom')
        assert (reloaded.journal.corrupt_lines, reloaded.journal.torn_bytes) == (0, fragment)
        assert path.read_bytes().endswith(b"\n")  # the torn tail is cut off

    def test_wrong_shape_line_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps({"not": "a cache entry"}) + "\n", encoding="utf-8")
        reloaded = PromptCache(path=path)
        assert len(reloaded) == 0
        assert reloaded.journal.corrupt_lines == 1

    def test_compaction_drops_dead_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        for round_ in range(5):
            cache.put(key("p"), response(f"v{round_}"))  # 5 lines, 1 live entry
        assert cache.compact() == 1
        assert len(path.read_text(encoding="utf-8").strip().splitlines()) == 1
        assert PromptCache(path=path).get(key("p")).text == "v4"

    def test_auto_compaction_bounds_journal_growth(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        for i in range(300):  # one live key, 300 appends
            cache.put(key("p"), response(f"v{i}"))
        lines = len(path.read_text(encoding="utf-8").strip().splitlines())
        assert lines < 300  # compaction kicked in at least once

    def test_compaction_counts_lines_earlier_processes_wrote(self, tmp_path):
        # Each open appends fewer lines than the threshold; what the file
        # already holds must count too, or it grows without bound.
        path = tmp_path / "cache.jsonl"
        for round_ in range(30):
            cache = PromptCache(path=path, max_entries=10)
            for i in range(10):
                cache.put(key(f"p{round_}-{i}"), response("x"))
            cache.close()
        assert len(path.read_bytes().splitlines()) <= 128
        assert len(PromptCache(path=path, max_entries=10)) == 10

    def test_journal_load_respects_max_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        for name in ("a", "b", "c", "d"):
            cache.put(key(name), response(name))
        trimmed = PromptCache(path=path, max_entries=2)
        assert len(trimmed) == 2
        assert trimmed.get(key("d")).text == "d"  # most recent survive
        assert trimmed.get(key("a")) is None

    def test_warm_open_and_hits_do_no_per_entry_text_work(self, tmp_path, monkeypatch):
        """Opening a journal and serving exact hits never normalises a prompt."""
        path = tmp_path / "cache.jsonl"
        cold = PromptCache(path=path)
        keys = [key(f"Match the records: Pale Ale {i} vs Pale Ale {i}.") for i in range(50)]
        for k in keys:
            cold.put(k, response("yes"))

        def forbidden(*args, **kwargs):
            raise AssertionError("the cache read path normalised a prompt")

        monkeypatch.setattr("repro.text.normalize.normalize_text", forbidden)
        monkeypatch.setattr("repro.llm.cache.normalize_text", forbidden, raising=False)
        warm = PromptCache(path=path)
        assert [warm.get(k).text for k in keys] == ["yes"] * len(keys)
        assert warm.stats.exact_hits == len(keys)


class TestJournalDirect:
    def test_append_then_load(self, tmp_path):
        journal = CacheJournal(tmp_path / "j.jsonl")
        journal.append((key("p"), response("one")))
        entries = journal.load()
        assert len(entries) == 1
        assert entries[0][0] == key("p")
        assert entries[0][1].text == "one"

    def test_missing_file_loads_empty(self, tmp_path):
        assert CacheJournal(tmp_path / "absent.jsonl").load() == []

    def test_compact_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CacheJournal(path)
        journal.append((key("a"), response("a")))
        journal.append((key("b"), response("b")))
        written = journal.compact([(key("b"), response("b"))])
        assert written == 1
        assert journal.lines_held == 1
        assert [k for k, _ in journal.load()] == [key("b")]

    def test_compact_fsyncs_tmp_before_rename(self, tmp_path, monkeypatch):
        """The rewritten file must be on disk before its rename can be."""
        journal = CacheJournal(tmp_path / "j.jsonl")
        journal.append((key("a"), response("a")))
        events = []
        real_fsync, real_replace = os.fsync, Path.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(self, target):
            events.append(("replace", self.name, Path(target).name))
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        journal.compact([(key("a"), response("a"))])
        # The appended file is fsynced too (closing its handle); what must
        # precede the rename is the fsync of the file renamed.
        assert events[-1] == ("replace", "j.jsonl.compact", "j.jsonl")
        assert ("fsync", journal.path.stat().st_ino) in events[:-1]


class TestServiceCacheLifecycle:
    def test_clear_cache_bumps_epoch_and_empties_cache(self):
        service = LLMService(SimulatedProvider())
        service.complete("Extract all person names from: John met Mary.")
        assert len(service.cache) == 1
        epoch = service._cache_epoch
        service.clear_cache()
        assert service._cache_epoch == epoch + 1
        assert len(service.cache) == 0

    def test_stale_epoch_put_is_dropped(self):
        """An in-flight call that started before clear_cache() must not
        resurrect its answer into the cleared cache."""
        service = LLMService(SimulatedProvider())
        stale_epoch = service._cache_epoch
        service.clear_cache()
        service._cache_put(
            [(service._cache_key("p", 64, ""), response("stale"))], stale_epoch
        )
        assert len(service.cache) == 0
        service._cache_put(
            [(service._cache_key("p", 64, ""), response("fresh"))], service._cache_epoch
        )
        assert len(service.cache) == 1

    def test_reset_usage_keeps_cache(self):
        service = LLMService(SimulatedProvider())
        service.complete("Extract all person names from: John met Mary.")
        service.reset_usage()
        assert len(service.cache) == 1
        assert service.usage().total_calls == 0


class TestCompactionCrashRecovery:
    """A kill between compaction's tmp-write and its atomic rename must
    never lose acknowledged entries: recover() reconciles the two files."""

    def _crashing_journal(self, path):
        from repro.llm.faults import CrashInjected, CrashPoint

        journal = CacheJournal(path)
        journal.append((key("a"), response("a")))
        journal.append((key("b"), response("b")))
        crash = CrashPoint("compaction:tmp-written")
        journal.crash_hook = crash.reached
        with pytest.raises(CrashInjected):
            journal.compact([(key("b"), response("b"))])
        assert crash.fired
        return journal

    def test_crash_mid_compaction_leaves_both_files(self, tmp_path):
        journal = self._crashing_journal(tmp_path / "cache.jsonl")
        assert journal.path.exists()
        assert journal._compact_tmp.exists()

    def test_recover_prefers_the_uncompacted_journal(self, tmp_path):
        # The main journal is a superset of the tmp's live entries, so
        # keeping it loses nothing; the orphaned tmp is dropped.
        journal = self._crashing_journal(tmp_path / "cache.jsonl")
        fresh = CacheJournal(journal.path)
        assert fresh.recover() == "dropped-orphan-tmp"
        assert not fresh._compact_tmp.exists()
        assert [k for k, _ in fresh.load()] == [key("a"), key("b")]

    def test_load_runs_recovery_implicitly(self, tmp_path):
        journal = self._crashing_journal(tmp_path / "cache.jsonl")
        entries = CacheJournal(journal.path).load()
        assert [k for k, _ in entries] == [key("a"), key("b")]
        assert not journal._compact_tmp.exists()

    def test_recover_promotes_tmp_when_rename_was_interrupted(self, tmp_path):
        # Simulate death *during* the rename's visible effect: the main
        # journal is gone but the fully written tmp survives.
        journal = self._crashing_journal(tmp_path / "cache.jsonl")
        journal.path.unlink()
        fresh = CacheJournal(journal.path)
        assert fresh.recover() == "promoted-tmp"
        assert fresh.path.exists()
        assert not fresh._compact_tmp.exists()
        assert [k for k, _ in fresh.load()] == [key("b")]

    def test_recover_is_a_noop_without_leftovers(self, tmp_path):
        journal = CacheJournal(tmp_path / "cache.jsonl")
        journal.append((key("a"), response("a")))
        assert journal.recover() is None

    def test_warm_start_after_mid_compaction_crash(self, tmp_path):
        # End to end: a PromptCache constructed over the crashed journal
        # warm-starts with every acknowledged answer intact.
        journal = self._crashing_journal(tmp_path / "cache.jsonl")
        cache = PromptCache(path=journal.path)
        assert cache.stats.loaded == 2
        assert cache.get(key("a")).text == "a"
        assert cache.get(key("b")).text == "b"

    def test_interrupted_compaction_can_rerun_cleanly(self, tmp_path):
        journal = self._crashing_journal(tmp_path / "cache.jsonl")
        fresh = CacheJournal(journal.path)
        live = fresh.load()
        assert fresh.compact(live) == 2  # no crash hook armed this time
        assert fresh.lines_held == 1  # one block line
        assert not fresh._compact_tmp.exists()
        assert [k for k, _ in fresh.load()] == [key("a"), key("b")]


def entry_objects(line: bytes) -> list[dict]:
    """The entries of one block line, each as the one-entry JSON object
    builds before record blocks wrote a line of."""
    block = json.loads(line)
    objects = []
    for row in block["rows"]:
        item = dict(zip(block["fields"], row))
        item["prompt"] = block.get("prompt_prefix", "") + item["prompt"]
        entry = {name: item[name] for name in ("provider", "version", "prompt", "max_tokens")}
        if item["namespace"]:
            entry["namespace"] = item["namespace"]
        entry["response"] = {
            name: item[name]
            for name in (
                "text", "prompt_tokens", "completion_tokens", "model", "skill", "latency_seconds",
            )
        }  # fmt: skip
        objects.append(entry)
    return objects


def _lines(path):
    """Each journal line's prompt, in file order: a lone put is one line of
    one entry."""
    prompts = []
    for line in path.read_text("utf-8").splitlines():
        block = json.loads(line)
        (row,) = block["rows"]
        prompts.append(row[block["fields"].index("prompt")])
    return prompts


class TestHeldJournalHandle:
    """Appends go through one held handle: flushed per entry, fsync-ed at
    compact/close, released before anything replaces the file."""

    def test_open_is_called_once_for_many_puts(self, tmp_path, monkeypatch):
        path = tmp_path / "deep" / "cache.jsonl"
        opened = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            if self == path:
                opened.append(args[:1])
            return real_open(self, *args, **kwargs)

        cache = PromptCache(path=path)
        monkeypatch.setattr(Path, "open", counting_open)
        for i in range(100):
            cache.put(key(f"p{i}"), response("x"))
        assert opened == [("ab",)]
        assert len(_lines(path)) == 100  # each line visible without a close

    def test_every_append_is_flushed_before_it_returns(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        for i in range(5):
            cache.put(key(f"p{i}"), response("x"))
            assert _lines(path) == [f"p{n}" for n in range(i + 1)]

    def test_put_after_compact_lands_in_the_new_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        cache.put(key("a"), response("1"))
        cache.put(key("a"), response("2"))
        assert cache.compact() == 1
        cache.put(key("b"), response("3"))
        assert _lines(path) == ["a", "b"]
        assert [k for k, _ in CacheJournal(path).load()] == [key("a"), key("b")]

    def test_put_after_clear_lands_in_the_new_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        cache.put(key("a"), response("1"))
        cache.clear()
        assert path.read_bytes() == b""
        cache.put(key("b"), response("2"))
        assert _lines(path) == ["b"]

    def test_auto_compaction_keeps_later_puts(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path, max_entries=2)
        for i in range(200):  # crosses the 128-line compaction threshold
            cache.put(key(f"p{i % 4}"), response(str(i)))
        reopened = PromptCache(path=path, max_entries=2)
        assert [(k.prompt, r.text) for k, r in reopened.entries()] == [
            ("p2", "198"),
            ("p3", "199"),
        ]

    def test_recover_with_a_handle_open_drops_the_orphan_tmp(self, tmp_path):
        from repro.llm.faults import CrashInjected, CrashPoint

        journal = CacheJournal(tmp_path / "cache.jsonl")
        journal.append((key("a"), response("a")))
        journal.crash_hook = CrashPoint("compaction:tmp-written").reached
        with pytest.raises(CrashInjected):
            journal.compact([(key("a"), response("a"))])
        journal.crash_hook = None
        # Same object, handle still open on the uncompacted journal.
        assert journal.recover() == "dropped-orphan-tmp"
        journal.append((key("b"), response("b")))
        assert _lines(journal.path) == ["a", "b"]

    def test_recover_with_a_handle_open_promotes_the_tmp(self, tmp_path):
        from repro.llm.faults import CrashInjected, CrashPoint

        journal = CacheJournal(tmp_path / "cache.jsonl")
        journal.append((key("a"), response("a")))
        journal.append((key("b"), response("b")))
        journal.crash_hook = CrashPoint("compaction:tmp-written").reached
        with pytest.raises(CrashInjected):
            journal.compact([(key("b"), response("b"))])
        journal.crash_hook = None
        journal.path.unlink()  # the held handle now points at an unlinked inode
        assert journal.recover() == "promoted-tmp"
        journal.append((key("c"), response("c")))
        assert _lines(journal.path) == ["b", "c"]

    def test_entries_of_a_process_that_died_without_closing_all_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        script = (
            "import os, sys\n"
            "from repro.llm.cache import CacheKey, PromptCache\n"
            "from repro.llm.providers import LLMResponse\n"
            "cache = PromptCache(path=sys.argv[1])\n"
            "for i in range(40):\n"
            "    cache.put(CacheKey('sim', '', f'p{i}', 64),\n"
            "              LLMResponse(text=str(i), prompt_tokens=1, completion_tokens=1, model='sim'))\n"
            "os._exit(3)\n"  # no close, no interpreter shutdown, no buffers flushed
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert done.returncode == 3
        survivor = PromptCache(path=path)
        assert survivor.stats.loaded == 40
        assert survivor.journal.corrupt_lines == 0
        assert survivor.get(key("p39")).text == "39"

    def test_close_fsyncs_releases_and_is_idempotent(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        cache.put(key("a"), response("1"))
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        cache.close()
        assert synced  # the background sync may have run first; close always does
        assert cache.journal._handle is None
        settled = len(synced)
        cache.close()
        assert len(synced) == settled
        cache.put(key("b"), response("2"))  # a later put reopens
        assert _lines(path) == ["a", "b"]
        cache.close()
        PromptCache().close()  # no journal: nothing to do

    def test_tenant_registry_close_closes_every_tenant_journal(self, tmp_path):
        from repro.serve.tenancy import TenantRegistry

        registry = TenantRegistry(tmp_path)
        caches = [registry.get(name).cache for name in ("acme", "globex")]
        for cache in caches:
            cache.put(key("p", namespace="t"), response("x"))
            assert cache.journal._handle is not None
        registry.close()
        assert [cache.journal._handle for cache in caches] == [None, None]

    def test_journal_bytes_for_a_fixed_put_sequence_are_pinned(self, tmp_path):
        """Which bytes reach the file for a fixed put sequence.  The line
        format moved to the shared compact codec, then to record blocks:
        each entry, in file order, spelled as the one-entry line every
        earlier build wrote gives back the bytes pinned here since the
        open-per-append implementation."""

        def as_written_before(data: bytes) -> bytes:
            return b"".join(
                json.dumps(entry, ensure_ascii=False, sort_keys=True).encode() + b"\n"
                for line in data.splitlines()
                for entry in entry_objects(line)
            )

        def pin(data: bytes) -> tuple[int, str]:
            return len(data), hashlib.sha256(data).hexdigest()

        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path, max_entries=3)
        prompts = ["plain", "naïve café ☕", 'quote " and \\ and\nnewline', "d", "e"]
        for turn in range(140):  # > 128 appended entries: one auto-compaction on the way
            cache.put(
                key(
                    prompts[turn % len(prompts)],
                    version=f"v{turn % 2}",
                    namespace="acme" if turn % 7 == 0 else "",
                ),
                response(f"answer {turn}"),
            )
        data = path.read_bytes()
        assert pin(data) == (
            2732,
            "d820d391350ce5e06ce95df1243eabff82fe451158730fe4d94091c04e5ef2c0",
        )
        assert pin(as_written_before(data)) == (
            3018,
            "5939c7223e29acc5173d9977f8ed4c12eb04858239c40f5e4ed093a18aa7a005",
        )
        cache.clear()
        cache.put(key("after clear"), response("kept"))
        data = path.read_bytes()
        assert pin(data) == (
            209,
            "d549c182800876b11f62ab5b5aa5583869cd71703be64ee6649a3f996e567c44",
        )
        assert pin(as_written_before(data)) == (
            205,
            "6d2c14e6b3759c5a0553b4ecf6eb3e825f4cb72c610a9e6af9c31abf7c020ffd",
        )
