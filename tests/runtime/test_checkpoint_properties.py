"""Property-based checkpoint laws (hypothesis).

The crash matrix enumerates boundaries; these properties quantify over the
whole prefix space instead:

- ``resume ∘ crash(prefix_k) ≡ full run`` for *every* prefix ``k`` — from
  ``k = 0`` (nothing but the header survived) to ``k = n`` (the run
  completed and the resume replays everything), including prefixes cut at
  arbitrary *byte* offsets, the way a real crash tears files.
- A torn mid-record tail is detected, truncated and counted — never an
  exception, never silent corruption.
- The journal and the value codec round-trip arbitrary JSON-shaped data.

Pipeline-driving properties reuse one small ER run (module-cached
baseline), so each hypothesis example costs two sub-second runs.
"""

from __future__ import annotations

import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro._jsonl as jsonl_module
from repro.core.runtime.checkpoint import (
    CheckpointJournal,
    RunCheckpoint,
    decode_value,
    encode_value,
)
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.faults import CrashInjected, CrashPoint
from repro.tasks.entity_resolution import pairs_as_inputs, pick_examples


@lru_cache(maxsize=1)
def _dataset():
    return generate_er_dataset("beer", seed=7, n_entities=60)


def _run(checkpoint=None, workers=2):
    system = LinguaManga()
    pipeline = get_template("entity_resolution").instantiate(
        examples=pick_examples(_dataset().train, 4)
    )
    return system.run(
        pipeline,
        {"pairs": pairs_as_inputs(_dataset().test)},
        workers=workers,
        chunk_size=2,  # several chunks per operator: a rich prefix space
        checkpoint=checkpoint,
    )


@lru_cache(maxsize=1)
def _baseline() -> str:
    return _run().canonical_json()


@lru_cache(maxsize=1)
def _boundary_events() -> list[tuple[str, int]]:
    """Every (boundary, hit) pair one checkpointed run announces, in order."""
    probe = CrashPoint("__probe__")
    with tempfile.TemporaryDirectory() as scratch:
        _run(checkpoint=RunCheckpoint(Path(scratch) / "run.wal", crash=probe))
    return [
        (boundary, hit)
        for boundary, count in sorted(probe.seen.items())
        for hit in range(1, count + 1)
    ]


@lru_cache(maxsize=1)
def _completed_wal() -> bytes:
    """The journal bytes of one run that ran to completion."""
    with tempfile.TemporaryDirectory() as scratch:
        wal = Path(scratch) / "run.wal"
        _run(checkpoint=RunCheckpoint(wal))
        return wal.read_bytes()


class TestResumeIsIdentity:
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_resume_from_any_boundary_prefix_matches_full_run(self, data):
        events = _boundary_events()
        # index == len(events) is the k = n case: nothing was killed and
        # the resume replays a complete journal.
        index = data.draw(st.integers(0, len(events)), label="prefix")
        with tempfile.TemporaryDirectory() as scratch:
            wal = Path(scratch) / "run.wal"
            if index == len(events):
                _run(checkpoint=RunCheckpoint(wal))
            else:
                boundary, hit = events[index]
                crash = CrashPoint(boundary, hits=hit)
                with pytest.raises(CrashInjected):
                    _run(checkpoint=RunCheckpoint(wal, crash=crash))
            resumed = _run(checkpoint=RunCheckpoint(wal))
            assert resumed.canonical_json() == _baseline()

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_resume_from_any_byte_prefix_matches_full_run(self, data):
        # Stronger than boundary prefixes: a crash can tear the journal at
        # any byte, including mid-header (k = 0: resume starts from
        # scratch) and mid-record (the torn tail is truncated away).
        blob = _completed_wal()
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        with tempfile.TemporaryDirectory() as scratch:
            wal = Path(scratch) / "run.wal"
            wal.write_bytes(blob[:cut])
            resumed = _run(checkpoint=RunCheckpoint(wal))
            assert resumed.canonical_json() == _baseline()


class TestTornTail:
    @settings(deadline=None, max_examples=25)
    @given(
        junk=st.binary(min_size=1, max_size=200)
        .map(lambda raw: raw.replace(b"\n", b""))
        .filter(bool)
    )
    def test_torn_mid_record_tail_is_discarded_not_fatal(self, junk):
        blob = _completed_wal()
        with tempfile.TemporaryDirectory() as scratch:
            wal = Path(scratch) / "run.wal"
            wal.write_bytes(blob + junk)  # no trailing newline: torn mid-write
            journal = CheckpointJournal(wal)
            journal.load()
            assert journal.torn_bytes == len(junk)
            assert wal.read_bytes() == blob  # physically truncated back
            resumed = _run(checkpoint=RunCheckpoint(wal))
            assert resumed.canonical_json() == _baseline()


_JSON_ROWS = st.lists(
    st.dictionaries(
        st.text(max_size=10),
        st.none() | st.booleans() | st.integers() | st.text(max_size=20),
        max_size=4,
    ),
    max_size=8,
)

_KEYS = st.text(max_size=8) | st.integers() | st.tuples(st.integers(), st.text(max_size=4))
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children)
    | st.tuples(children, children)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=20,
)


class TestRoundTrips:
    @settings(deadline=None, max_examples=50)
    @given(rows=_JSON_ROWS)
    # Integers past 64 bits: orjson refuses to write them and would read
    # the stdlib's digits back as a float.
    @example(rows=[{"": -9223372036854775809}])
    @example(rows=[{"": 2**70}])
    def test_journal_round_trips_arbitrary_records(self, rows):
        # No fsync interval, so group commits land mid-stream too.
        with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
            jsonl_module, "DEFAULT_FSYNC_INTERVAL", 0
        ):
            journal = CheckpointJournal(Path(scratch) / "j.wal")
            for row in rows:
                journal.append(row)
            journal.close()
            reloaded = CheckpointJournal(journal.path)
            assert reloaded.load() == rows
            assert reloaded.torn_bytes == 0

    @settings(deadline=None, max_examples=100)
    @given(value=_VALUES)
    def test_value_codec_round_trips(self, value):
        assert decode_value(encode_value(value)) == value
