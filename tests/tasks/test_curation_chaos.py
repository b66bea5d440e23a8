"""Tier-2 chaos arm: large-corpus streamed dedup under crash/resume.

The big-corpus guarantees the curation family adds on top of the PR 6
streaming matrix:

- a streamed dedup verification run killed mid-shard and resumed from its
  ledger is byte-identical to an uninterrupted run (the candidate stream
  is re-derived deterministically from the corpus, so resume never needs
  the original generator);
- the two-pass external candidate scan stays memory-flat: the peak
  resident posting slice is a small fraction of the full posting volume,
  while emitting exactly the in-memory kernel's pair stream.

Heavier than the tier-1 suites (hundreds of documents, several
crash/resume cycles), so it runs in its own CI job on main.
"""

from __future__ import annotations

import pytest

from repro.core.compiler.curation import dedup_candidate_pairs
from repro.core.runtime.system import LinguaManga
from repro.core.templates import get_template
from repro.datasets.curation import CurationCorpus
from repro.llm.faults import CrashInjected, CrashPoint
from repro.tasks.curation import iter_dedup_candidate_ids, iter_dedup_candidates
from tests.conftest import assert_reports_identical

pytestmark = pytest.mark.tier2

CORPUS = CurationCorpus(n_docs=400, seed=17)
CHUNK = 32


def stream_dedup(workers, **stream_kwargs):
    system = LinguaManga()
    pipeline = get_template("document_dedup").instantiate(
        mode="pairs", examples=CORPUS.dedup_examples()
    )
    report = system.run_stream(
        pipeline,
        {"pairs": iter_dedup_candidates(CORPUS)},
        workers=workers,
        chunk_size=CHUNK,
        source_id=f"{CORPUS.fingerprint}|dedup-pairs",
        **stream_kwargs,
    )
    return report


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted run every chaos arm must reproduce byte for byte."""
    return stream_dedup(workers=2).canonical_json()


@pytest.fixture(scope="module")
def n_shards(baseline):
    pairs = sum(1 for _ in iter_dedup_candidate_ids(CORPUS.inputs()))
    return -(-pairs // CHUNK)


class TestCrashResumeAtScale:
    def test_crash_mid_run_then_resume_is_byte_identical(
        self, baseline, n_shards, tmp_path
    ):
        # First, middle and last journaled shard — the cheap probe of the
        # full boundary sweep the PR 6 matrix already runs exhaustively.
        for hit in sorted({1, n_shards // 2, n_shards}):
            wal = tmp_path / f"crash-{hit}.wal"
            crash = CrashPoint("shard:journaled", hits=hit)
            with pytest.raises(CrashInjected):
                stream_dedup(workers=2, ledger_path=wal, crash=crash)
            assert crash.fired
            resumed = stream_dedup(workers=2, ledger_path=wal)
            assert_reports_identical(baseline, resumed)
            assert resumed.recovery["resumed"]
            assert resumed.recovery["replayed_shards"] >= hit

    def test_resume_at_different_worker_count(self, baseline, tmp_path):
        wal = tmp_path / "switch.wal"
        crash = CrashPoint("shard:journaled", hits=2)
        with pytest.raises(CrashInjected):
            stream_dedup(workers=8, ledger_path=wal, crash=crash)
        resumed = stream_dedup(workers=1, ledger_path=wal)
        assert_reports_identical(baseline, resumed)


class TestMemoryFlatAtScale:
    def test_external_scan_matches_kernel_on_large_corpus(self):
        records = [doc.record() for doc in CORPUS]
        stats: dict = {}
        streamed = list(
            iter_dedup_candidate_ids(CORPUS.inputs(), partitions=32, stats=stats)
        )
        assert streamed == dedup_candidate_pairs(records)
        assert stats["docs"] == len(records)

    def test_peak_resident_slice_is_a_fraction_of_the_posting_volume(self):
        # 32 partitions: the resident slice must stay near 1/32 of the
        # postings — the "corpus larger than RAM" budget in miniature.
        stats: dict = {}
        list(iter_dedup_candidate_ids(CORPUS.inputs(), partitions=32, stats=stats))
        assert stats["peak_partition_postings"] <= stats["postings"] / 8
        assert stats["spilled_bytes"] > 0
