"""The cache journal's record blocks: one line per paid batch.

``CacheJournal.append`` writes a batch as the prompt-sharing record block
the run journal writes its ledger slices as (``repro._jsonl._encode_block``),
at most ``_BLOCK_ENTRIES`` entries a line.  These tests round-trip blocks
under both codecs, cap their size, load them after the one-entry lines
earlier builds wrote, and check that a line holding a value of the wrong
JSON type is damaged — skipped, counted and paid again — never coerced
into an answer.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.llm.cache import _BLOCK_ENTRIES, CacheJournal, CacheKey, PromptCache
from repro.llm.providers import LLMResponse, SimulatedProvider
from repro.llm.service import LLMService
from tests.core.parent_journals.make_warm_fixtures import mixed_entries
from tests.llm.test_cache import entry_objects, key, response

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

PARENT_JOURNALS = Path(__file__).parents[1] / "core" / "parent_journals"


def replay(entries) -> list[tuple[CacheKey, LLMResponse]]:
    """What loading ``entries`` gives: a later entry for a key wins and moves last."""
    live: dict = {}
    for built, answer in entries:
        live.pop(built, None)
        live[built] = answer
    return list(live.items())


_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from(['"', "\\", "\n", "\ud800", "\U0001f600"])),
    max_size=10,
)
_PREFIX = st.one_of(st.just(""), st.text(min_size=32, max_size=48).map(lambda t: t + "§"))
_ENTRY = st.builds(
    lambda provider, version, prompt, max_tokens, namespace, text, tokens, latency: (
        CacheKey(provider, version, prompt, max_tokens, namespace),
        LLMResponse(text, tokens, tokens + 1, provider, version, latency),
    ),
    st.sampled_from(["sim", "other"]),
    st.sampled_from(["", "v1"]),
    st.sampled_from(["a", "b", "c\ud800"]) | _TEXT,  # a few, so keys repeat
    st.sampled_from([64, 2**70]) | st.integers(),
    st.sampled_from(["", "acme"]),
    _TEXT,
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([0.0, 1e-06, 0.25]) | st.floats(0, 10),
)


class TestRoundTrip:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_PREFIX, st.lists(_ENTRY, min_size=1, max_size=12))
    @example("", [(key("x\ud800"), response("y"))])
    @example("p" * 40, [(CacheKey("sim", "", "a", 2**70, "acme"), response("1"))] * 2)
    def test_a_batch_loads_back(self, either_codec, prefix, batch):
        batch = [
            (CacheKey(k.provider, k.version, prefix + k.prompt, k.max_tokens, k.namespace), r)
            for k, r in batch
        ]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "cache.jsonl"
            journal = CacheJournal(path)
            journal.append(*batch)
            journal.close()
            (line,) = path.read_bytes().splitlines()
            shared = "prompt_prefix" in json.loads(line)
            assert shared == (bool(prefix) and len(batch) > 1)
            assert CacheJournal(path).load() == replay(batch)
            cache = PromptCache(path=path)
            assert cache.entries() == replay(batch)
            assert cache.journal.entries_held == len(batch)

    def test_a_shared_preamble_is_written_once(self, tmp_path):
        preamble = "Decide whether the two records match. " * 20
        batch = [(key(preamble + str(n)), response(str(n))) for n in range(20)]
        CacheJournal(tmp_path / "cache.jsonl").append(*batch)
        data = (tmp_path / "cache.jsonl").read_bytes()
        assert data.count(preamble.encode()) == 1
        assert json.loads(data)["prompt_prefix"] == preamble


class TestBlockSize:
    def test_a_300_entry_batch_is_two_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        batch = [(key(f"p{n}"), response(str(n))) for n in range(300)]
        journal = CacheJournal(path)
        journal.append(*batch)
        rows = [len(json.loads(line)["rows"]) for line in path.read_bytes().splitlines()]
        assert rows == [_BLOCK_ENTRIES, 300 - _BLOCK_ENTRIES]
        assert journal.entries_held == 300
        assert CacheJournal(path).load() == batch

    def test_a_compaction_writes_capped_blocks(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        batch = [(key(f"p{n}"), response(str(n))) for n in range(600)]
        journal = CacheJournal(path)
        assert journal.compact(batch) == 600
        assert journal.lines_held == 3 and journal.entries_held == 600
        assert CacheJournal(path).load() == batch

    def test_older_entry_lines_then_blocks_load_in_order(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        shutil.copy(PARENT_JOURNALS / "cache_mixed.jsonl", path)
        older = list(mixed_entries())
        added = [(key(f"added {n}", namespace="acme"), response(str(n))) for n in range(3)]
        journal = CacheJournal(path)
        journal.append(*added)
        journal.append(older[1], added[0])  # both supersede an earlier line
        journal.close()
        fresh = CacheJournal(path)
        assert fresh.load() == replay([*older, *added, older[1], added[0]])
        assert fresh.corrupt_lines == 0
        assert fresh.entries_held == len(older) + 5
        assert PromptCache(path=path).entries() == fresh.load()


PROMPT = "Extract all person names from: John met Mary."


def paid_entry(path: Path) -> tuple[str, dict]:
    """Pay ``PROMPT`` once into a journal at ``path``; returns the answer and
    the entry as the one-entry object builds before record blocks wrote."""
    service = LLMService(SimulatedProvider(), cache_path=path)
    answer = service.complete(PROMPT)
    service.cache.close()
    (entry,) = entry_objects(path.read_bytes())
    return answer, entry


def served_after(path: Path, answer: str, damaged: int) -> None:
    """A service over ``path`` skips ``damaged`` lines, holds nothing, and pays."""
    service = LLMService(SimulatedProvider(), cache_path=path)
    assert service.cache.journal.corrupt_lines == damaged
    assert len(service.cache) == 0
    assert service.complete(PROMPT) == answer
    assert (service.served_calls, service.cached_calls) == (1, 0)


#: (where, column, a value of the wrong JSON type)
WRONG_TYPES = [
    ("response", "text", None),
    ("response", "text", 5),
    ("response", "prompt_tokens", True),
    ("response", "completion_tokens", 2.0),
    ("response", "model", 5),
    ("response", "skill", None),
    ("response", "latency_seconds", "0.5"),
    ("response", "latency_seconds", False),
    (None, "prompt", None),
    (None, "max_tokens", 64.0),
    (None, "max_tokens", "64"),
    (None, "provider", ["sim"]),
    (None, "version", 1),
    (None, "namespace", None),
]


class TestWrongTypes:
    """A line that parses but holds a value of the wrong JSON type is
    damaged: skipped and counted, never coerced into an entry."""

    @pytest.mark.parametrize("where, column, value", WRONG_TYPES)
    def test_an_older_entry_line_is_damaged(self, tmp_path, where, column, value):
        path = tmp_path / "cache.jsonl"
        answer, entry = paid_entry(path)
        (entry[where] if where else entry)[column] = value
        path.write_bytes(json.dumps(entry).encode() + b"\n")
        served_after(path, answer, damaged=1)

    @pytest.mark.parametrize("where, column, value", WRONG_TYPES)
    def test_a_block_with_one_bad_row_is_damaged_whole(self, tmp_path, where, column, value):
        path = tmp_path / "cache.jsonl"
        answer, _ = paid_entry(path)
        block = json.loads(path.read_bytes())
        (row,) = block["rows"]
        other = list(row)
        other[block["fields"].index("prompt")] = "another prompt"
        row[block["fields"].index(column)] = value
        block["rows"] = [other, row]
        path.write_bytes(json.dumps(block).encode() + b"\n")
        served_after(path, answer, damaged=1)
