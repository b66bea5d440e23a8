"""Memory-bounded streaming: curate a corpus too large to materialize.

``run_stream()`` executes a linear pipeline as a pipelined stream of
fixed-size shards pulled from a durable work queue: the input generator
is never materialized, at most ``window`` shards wait in memory between
the source and the fold, verdicts leave through a sink as each shard
folds, and peak residency stays O(chunk_size x window) no matter how many
records flow through.

The demo also stages the failure the ledger is built to absorb: a
whole-process crash (``CrashPoint``) — re-running with the same ledger
path replays journalled shards at zero provider cost, and the resumed
report is byte-identical to an uninterrupted run.

Run with:  python examples/streaming_large_run.py
"""

import tempfile
from pathlib import Path

from repro import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService

N_PAIRS = 2_000  # crank to 1_000_000: memory stays flat, only time grows
CHUNK = 100


def run_stream(corpus, sink=None, ledger: Path | None = None, **faults):
    """One streaming ER run on a fresh system; returns (report, calls)."""
    provider = SimulatedProvider()
    system = LinguaManga(service=LLMService(provider))
    pipeline = get_template("entity_resolution").instantiate(
        examples=corpus.examples()
    )
    report = system.run_stream(
        pipeline,
        {"pairs": corpus.inputs()},  # a generator — never list()-ed
        workers=4,
        chunk_size=CHUNK,
        window=8,
        ledger_path=ledger,
        source_id=corpus.fingerprint,
        sink=sink,
        **faults,
    )
    return report, provider.calls_served


def main() -> None:
    corpus = StreamingERCorpus(N_PAIRS, seed=7)

    # 1. Stream verdicts out through a sink: nothing accumulates in RAM.
    matches = 0

    def count_matches(verdicts) -> None:
        nonlocal matches
        matches += sum(1 for verdict in verdicts if verdict)

    baseline, full_calls = run_stream(corpus, sink=count_matches)
    summary = next(iter(baseline.outputs.values()))
    print(f"streamed {summary['records']} pairs in {baseline.recovery['shards']} "
          f"shards: {matches} matches, {full_calls} provider calls")
    print(f"in-flight high-watermark: "
          f"{baseline.recovery['inflight_peak_records']} records "
          f"(<= chunk x window, independent of corpus size)")

    # 2. Crash the whole process, then resume from the shard ledger.
    with tempfile.TemporaryDirectory() as scratch:
        wal = Path(scratch) / "stream.wal"
        try:
            run_stream(corpus, sink=count_matches, ledger=wal,
                       crash=CrashPoint("shard:journaled", hits=12))
        except CrashInjected as death:
            print(f"crashed: {death}")
        resumed, resume_calls = run_stream(corpus, sink=count_matches, ledger=wal)
        identical = resumed.canonical_json() == baseline.canonical_json()
        print(f"resumed: replayed {resumed.recovery['replayed_shards']} shards "
              f"for free, paid {resume_calls} of {full_calls} provider calls")
        print(f"resumed report byte-identical to uninterrupted run: {identical}")
        assert identical and resume_calls < full_calls


if __name__ == "__main__":
    main()
