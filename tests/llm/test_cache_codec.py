"""The cache journal's line codec and the once-per-key digest.

The prompt cache writes its journal through the codec the other three
journals use (:mod:`repro._jsonl`) and keeps a key's digest on the key.
Neither may change a value anything recorded: digests sit in run-journal
and shard-ledger headers and in the serve layer's ``cache_state.json``,
and journals written by earlier builds must keep loading.  The parent
commit's formulas are kept here as the references, and
``tests/core/parent_journals/`` holds files that commit wrote.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import shutil
from pathlib import Path

import pytest

import repro._jsonl as jsonl
from repro.llm.cache import CacheJournal, CacheKey, PromptCache, key_digest
from repro.llm.providers import LLMResponse, SimulatedProvider
from repro.llm.service import LLMService
from repro.obs import Observability
from tests.core.parent_journals.make_warm_fixtures import (
    MIXED,
    mixed_entries,
    resume_figures,
)
from tests.llm.test_cache import entry_objects, key, response

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

PARENT_JOURNALS = Path(__file__).parents[1] / "core" / "parent_journals"
PARENT_FIGURES = json.loads((PARENT_JOURNALS / "warm_figures.json").read_text("utf-8"))
MAX_EXAMPLES = int(os.environ.get("CACHE_CODEC_EXAMPLES", "150"))


def reference_digest(key: CacheKey) -> str:
    """``key_digest`` as the parent commit computed it."""
    parts: list = [key.provider, key.version, key.prompt, key.max_tokens]
    if key.namespace:
        parts.append(key.namespace)
    payload = json.dumps(parts, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def surrogate_digest(key: CacheKey) -> str:
    """``key_digest`` of a key the parent formula raised on (a lone surrogate):
    each part the parent's way, save that a part UTF-8 cannot spell is
    escaped to ASCII."""
    parts: list = [key.provider, key.version, key.prompt, key.max_tokens]
    if key.namespace:
        parts.append(key.namespace)
    spelled = []
    for part in parts:
        try:
            spelled.append(json.dumps(part, ensure_ascii=False).encode("utf-8"))
        except UnicodeEncodeError:
            spelled.append(json.dumps(part).encode("ascii"))
    return hashlib.sha256(b"[" + b", ".join(spelled) + b"]").hexdigest()[:16]


def reference_line(key: CacheKey, response: LLMResponse) -> bytes:
    """A journal line as the parent commit wrote it."""
    payload = {
        "provider": key.provider,
        "version": key.version,
        "prompt": key.prompt,
        "max_tokens": key.max_tokens,
        "response": {
            "text": response.text,
            "prompt_tokens": response.prompt_tokens,
            "completion_tokens": response.completion_tokens,
            "model": response.model,
            "skill": response.skill,
            "latency_seconds": response.latency_seconds,
        },
    }
    if key.namespace:
        payload["namespace"] = key.namespace
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n").encode()


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)


@pytest.fixture
def sha256_calls(monkeypatch):
    """How many times anything hashed with sha256 from here on."""
    calls = []
    real = hashlib.sha256

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


# What JSON string escaping and UTF-8 treat specially, over-sampled.
_AWKWARD = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "\x80",
     "\u2028", "\u2029", "\ufeff", "\uffff", "\U0001f600", "\U0010ffff",
     "\ud800", "\udfff", "\xe9", "/", "<", ", ", '", "', "]"]
)  # fmt: skip
_TEXT = st.lists(
    st.one_of(_AWKWARD, st.characters(), st.text(max_size=8)), max_size=12
).map("".join)
_MAX_TOKENS = st.one_of(
    st.sampled_from([0, -1, 256, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63) - 1]),
    st.integers(),
)


class TestDigestValue:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(_TEXT, _TEXT, _TEXT, _MAX_TOKENS, _TEXT)
    @example("sim", "", "lone \ud800 surrogate", 64, "")
    @example("sim", "", "p", 2**64, "acme")
    def test_equals_the_parent_formula_or_both_raise(
        self, provider, version, prompt, max_tokens, namespace
    ):
        built = CacheKey(provider, version, prompt, max_tokens, namespace)
        expected = outcome(reference_digest, built)
        if expected is UnicodeEncodeError:  # the parent raised: nothing recorded it
            expected = surrogate_digest(built)
        assert outcome(key_digest, built) == expected
        assert outcome(key_digest, built) == expected  # and again, remembered

    def test_every_code_point_is_spelled_as_the_stdlib_spells_it(self):
        points = [p for p in range(0x110000) if not 0xD800 <= p <= 0xDFFF]
        for start in range(0, len(points), 4096):
            text = "".join(map(chr, points[start : start + 4096]))
            expected = json.dumps(text, ensure_ascii=False).encode("utf-8")
            assert jsonl._dump_scalar(text) == expected

    def test_digests_computed_on_the_parent_commit(self, either_codec):
        digests = [key_digest(built) for built, _ in mixed_entries()]
        assert digests == PARENT_FIGURES["mixed_digests"]
        assert digests[0] == digests[3] == "9beb15c3d62a4258"


class TestDigestOnce:
    def test_one_hash_per_key_object(self, sha256_calls):
        built = key("p" * 2000)
        digests = {key_digest(built) for _ in range(5)}
        assert len(sha256_calls) == 1
        assert digests == {reference_digest(built)}

    def test_state_digests_hashes_each_entry_once(self, sha256_calls):
        cache = PromptCache()
        for i in range(20):
            cache.put(key(f"p{i}"), response("x"))
        first = cache.state_digests()
        assert len(sha256_calls) == 20
        assert cache.state_digests() == first
        assert cache.restore_state(first) == 0
        assert len(sha256_calls) == 20

    def test_a_reput_key_is_digested_at_most_once_more(self, sha256_calls):
        cache = PromptCache()
        cache.put(key("p"), response("old"))
        cache.state_digests()
        cache.put(key("p"), response("new"))  # an equal key, a new object
        cache.state_digests()
        cache.state_digests()
        assert len(sha256_calls) <= 2

    def test_the_digest_is_no_part_of_the_key(self):
        digested, fresh = key("p", namespace="acme"), key("p", namespace="acme")
        before = repr(digested)
        key_digest(digested)
        assert digested == fresh and hash(digested) == hash(fresh)
        assert repr(digested) == before and "digest" not in before
        assert key_digest(fresh) == key_digest(digested)
        assert {digested: 1}[fresh] == 1
        with pytest.raises(TypeError):
            CacheKey("sim", "", "p", 64, "acme", "0123456789abcdef")
        with pytest.raises(dataclasses.FrozenInstanceError):
            digested.prompt = "q"

    def test_copies_keep_a_true_digest(self):
        digested = key("p", namespace="acme")
        expected = key_digest(digested)
        for clone in (
            copy.copy(digested),
            copy.deepcopy(digested),
            pickle.loads(pickle.dumps(digested)),
        ):
            assert clone == digested and key_digest(clone) == expected
        other = dataclasses.replace(digested, prompt="q")
        assert key_digest(other) == reference_digest(other) != expected


def parent_replay() -> list[tuple[CacheKey, LLMResponse]]:
    """What loading ``cache_mixed.jsonl`` gives: later puts win and move last."""
    entries: dict = {}
    for built, answer in mixed_entries():
        entries.pop(built, None)
        entries[built] = answer
    return list(entries.items())


class TestLineFormat:
    def test_a_parent_written_journal_loads(self):
        journal = CacheJournal(PARENT_JOURNALS / "cache_mixed.jsonl")
        loaded = journal.load()
        assert loaded == parent_replay()
        assert journal.corrupt_lines == 0
        # the superseded first line is gone, its key moved behind the third
        assert [(k.prompt, r.text) for k, r in loaded] == [
            (MIXED[i][2], MIXED[i][5]) for i in (1, 2, 3, 4, 5)
        ]

    def test_the_fixture_is_what_the_parent_formula_writes(self):
        # guards the reference below, not the code under test
        written = (PARENT_JOURNALS / "cache_mixed.jsonl").read_bytes()
        assert written == b"".join(reference_line(*entry) for entry in mixed_entries())

    def test_a_file_holding_both_formats_loads(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        shutil.copy(PARENT_JOURNALS / "cache_mixed.jsonl", path)
        cache = PromptCache(path=path)
        assert cache.entries() == parent_replay()
        cache.put(key("added later", namespace="acme"), response("new"))
        cache.put(*next(mixed_entries()))  # supersedes a parent-written line
        cache.close()
        reopened = PromptCache(path=path)
        assert reopened.journal.corrupt_lines == 0
        assert reopened.entries() == cache.entries()
        assert [k.prompt for k, _ in reopened.entries()][-2:] == ["added later", "plain"]

    def test_each_line_parses_to_what_the_parent_wrote(self, tmp_path, either_codec):
        path = tmp_path / "cache.jsonl"
        cache = PromptCache(path=path)
        for built, answer in mixed_entries():
            cache.put(built, answer)
        cache.close()
        lines = path.read_bytes().splitlines(keepends=True)
        parent = (PARENT_JOURNALS / "cache_mixed.jsonl").read_bytes().splitlines(True)
        assert len(lines) == len(parent)  # a lone put is a block line of one entry
        entries = [entry for line in lines for entry in entry_objects(line)]
        assert entries == [json.loads(old) for old in parent]
        # ...and differs from it by layout, separator blanks and exponent
        # spelling only: re-encoded the parent's way, it is the parent's bytes.
        assert [
            (json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n").encode()
            for entry in entries
        ] == parent
        assert all(b'": ' not in line and b', "' not in line for line in lines)
        if jsonl._orjson is not None:
            assert b"e-06," in parent[0] and b"e-6]" in lines[0]
        assert CacheJournal(path).load() == parent_replay()

    def test_integers_past_64_bits_round_trip(self, tmp_path, either_codec):
        journal = CacheJournal(tmp_path / "cache.jsonl")
        huge = CacheKey("sim", "", "p", 2**64 + 1)
        journal.append((huge, response("x")))
        journal.append((key("q"), response("x")))
        journal.close()
        assert [k for k, _ in journal.load()] == [huge, key("q")]
        assert [k for k, _ in PromptCache(path=journal.path).entries()] == [huge, key("q")]

    def test_a_journal_written_without_the_accelerator_loads_with_it(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(jsonl, "_orjson", None)
            cache = PromptCache(path=path)
            for built, answer in mixed_entries():
                cache.put(built, answer)
            cache.close()
        assert CacheJournal(path).load() == parent_replay()


def three_entries(path: Path) -> list[bytes]:
    cache = PromptCache(path=path)
    for name in ("first", "middle", "last"):
        cache.put(key(f"{name} prompt"), response(name))
    cache.close()
    return path.read_bytes().splitlines(keepends=True)


class TestDamagedLines:
    """``load`` skips what it cannot read, wherever in the file it sits."""

    @pytest.mark.parametrize("damaged", [0, 1, 2])
    def test_a_byte_that_is_not_utf8_costs_one_line(self, tmp_path, damaged):
        path = tmp_path / "cache.jsonl"
        lines = three_entries(path)
        lines[damaged] = lines[damaged][:20] + b"\xff\xfe" + lines[damaged][22:]
        path.write_bytes(b"".join(lines))
        cache = PromptCache(path=path)
        survivors = [n for i, n in enumerate(("first", "middle", "last")) if i != damaged]
        assert [r.text for _, r in cache.entries()] == survivors
        assert cache.journal.corrupt_lines == 1

    def test_valid_json_of_the_wrong_shape_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = three_entries(path)
        junk = [b"[]\n", b'"x"\n', b'{"response": 5}\n', b"5\n", b"null\n", b"\n"]
        (whole,) = entry_objects(lines[0])  # an older one-entry line
        junk.append(json.dumps({**whole, "response": 5}).encode() + b"\n")
        junk.append(json.dumps({**whole, "max_tokens": "many"}).encode() + b"\n")
        block = json.loads(lines[0])
        (row,) = block["rows"]
        for damaged in (
            {**block, "rows": [row[:-1]]},
            {**block, "rows": [[*row, 0]]},
            {**block, "rows": row},
            {**block, "rows": "rows"},
            {**block, "fields": block["fields"][::-1]},
            {**block, "prompt_prefix": ["not", "text"]},
        ):
            junk.append(json.dumps(damaged).encode() + b"\n")
        path.write_bytes(b"".join([lines[0], *junk, lines[1], lines[2]]))
        cache = PromptCache(path=path)
        assert [r.text for _, r in cache.entries()] == ["first", "middle", "last"]
        assert cache.journal.corrupt_lines == len(junk) - 1  # the blank line is no line

    def test_the_count_reaches_the_metrics(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = three_entries(path)
        path.write_bytes(lines[0] + b"\xff\n" + lines[1] + b"[]\n" + lines[2] + b"{")
        obs = Observability()
        service = LLMService(SimulatedProvider(), cache_path=str(path), obs=obs)
        assert len(service.cache) == 3
        # the counters every journal reports its damage through
        assert obs.metrics.counter("journal.corrupt_lines").value == 2
        assert obs.metrics.counter("journal.torn_bytes").value == 1


class TestTornTail:
    """A crash mid-append leaves a line without its newline; load truncates
    and counts it, so the next entry written starts a clean line."""

    def torn(self, path: Path) -> int:
        """Tear the last line; returns how many of its bytes are left."""
        last = three_entries(path)[-1]
        with path.open("r+b") as handle:
            handle.truncate(path.stat().st_size - 40)
        return len(last) - 40

    def check(self, path: Path, left: int) -> None:
        cache = PromptCache(path=path)
        assert len(cache) == 2
        assert (cache.journal.corrupt_lines, cache.journal.torn_bytes) == (0, left)
        cache.put(key("paid after the crash"), response("kept"))
        cache.put(key("and another"), response("kept too"))
        cache.close()
        reopened = PromptCache(path=path)
        assert [r.text for _, r in reopened.entries()] == [
            "first", "middle", "kept", "kept too",
        ]  # fmt: skip
        assert (reopened.journal.corrupt_lines, reopened.journal.torn_bytes) == (0, 0)
        assert b"\n\n" not in path.read_bytes()

    def test_put_after_a_torn_tail_survives(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        self.check(path, self.torn(path))

    def test_put_after_a_promoted_torn_tmp_survives(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        left = self.torn(path)
        path.rename(CacheJournal(path)._compact_tmp)
        assert CacheJournal(path).recover() == "promoted-tmp"
        self.check(path, left)

    def test_a_whole_line_missing_only_its_newline_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        last = three_entries(path)[-1]
        path.write_bytes(path.read_bytes()[:-1])
        cache = PromptCache(path=path)
        assert (len(cache), cache.journal.torn_bytes) == (2, len(last) - 1)
        cache.put(key("next"), response("next"))
        cache.close()
        assert [r.text for _, r in PromptCache(path=path).entries()] == [
            "first", "middle", "next",
        ]  # fmt: skip

    def test_a_clean_file_gains_no_blank_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        before = b"".join(three_entries(path))
        cache = PromptCache(path=path)
        cache.put(key("next"), response("next"))
        cache.close()
        after = path.read_bytes()
        assert after.startswith(before) and after.count(b"\n") == 4
        assert b"\n\n" not in after


class TestRecordedDigests:
    """Headers written by the parent over a warm cache still rewind it."""

    def test_the_fixtures_record_digests(self):
        for name, count in (("warm_run", 4), ("warm_ledger", 5)):
            wal = (PARENT_JOURNALS / f"{name}.wal").read_bytes()
            header = json.loads(wal[: wal.index(b"\n")])
            journal = CacheJournal(PARENT_JOURNALS / f"{name}.cache.jsonl")
            recorded = header["cache_exact"]
            held = [key_digest(k) for k, _ in journal.load()]
            assert len(recorded) == count and set(recorded) < set(held)
            assert sorted(held[:count]) == recorded

    def test_resume_reports_what_the_parent_reported(self):
        figures = resume_figures(PARENT_JOURNALS)
        assert figures["run"]["cache_entries_pruned"] == 4
        assert figures["stream"]["cache_entries_pruned"] == 3
        assert figures == {k: PARENT_FIGURES[k] for k in ("run", "stream")}
