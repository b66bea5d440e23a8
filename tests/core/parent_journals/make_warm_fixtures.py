"""Writes the ``cache_mixed`` / ``warm_*`` fixtures beside it; they were written
with the source of eb9786f (the commit before the cache journal changed codec):

    PYTHONPATH=<checkout of eb9786f>/src python make_warm_fixtures.py <out-dir>

With whatever ``repro`` is on the path it writes a cache journal of assorted
entries (``cache_mixed.jsonl``) and two crashed runs over a cache that was
already warm — a run checkpoint (``warm_run.wal`` + ``warm_run.cache.jsonl``)
and a shard ledger (``warm_ledger.wal`` + ``warm_ledger.cache.jsonl``) whose
headers record the digests of the entries the cache held at run start and
whose cache journals also hold what the crashed run appended — then resumes
copies of both and records what that build reports
(``warm_figures.json``).  ``tests/llm/test_cache_codec.py`` imports the
helpers and expects every later build to report the same on the same files.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.runtime.checkpoint import RunCheckpoint
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.datasets.imputation import generate_buy_dataset
from repro.llm.cache import CacheKey, PromptCache, key_digest
from repro.llm.faults import CrashInjected, CrashPoint
from repro.llm.providers import LLMResponse
from repro.tasks.imputation import run_llm_imputation

BUY = generate_buy_dataset(seed=11, n_train=8, n_test=12).test
CORPUS = StreamingERCorpus(24, seed=7)

#: (provider, version, prompt, max_tokens, namespace, response text); the
#: fourth put supersedes the first, so the first line of the file is dead.
MIXED = [
    ("sim", "", "plain", 64, "", "one"),
    ("sim", "v1", "naïve café ☕ 𝄞", 64, "", "zwei ✓"),
    ("sim", "", 'quote " and \\ and\nnewline\ttab \x7f  ', 8, "", 'a "b"\n'),
    ("sim", "", "plain", 64, "", "one, again"),
    ("sim", "v1", "tenant's prompt", 256, "acme", "namespaced"),
    ("other-model", "", "plain", 64, "", "other provider"),
]


def mixed_entries():
    for provider, version, prompt, max_tokens, namespace, text in MIXED:
        yield CacheKey(provider, version, prompt, max_tokens, namespace), LLMResponse(
            text=text,
            prompt_tokens=len(prompt),
            completion_tokens=len(text),
            model=provider,
            skill="demo",
            # most spell an exponent, which the two encoders write differently
            latency_seconds=0.25 if namespace else 1e-06 * len(prompt),
        )


def run_imputation(cache_path, records=BUY, checkpoint=None):
    system = LinguaManga(cache_path=str(cache_path))
    return run_llm_imputation(system, records, workers=1, checkpoint=checkpoint)


def run_stream(cache_path, pairs=None, **kwargs):
    pipeline = get_template("entity_resolution").instantiate(examples=CORPUS.examples())
    return LinguaManga(cache_path=str(cache_path)).run_stream(
        pipeline,
        {"pairs": CORPUS.inputs() if pairs is None else pairs},
        workers=1,
        chunk_size=8,
        source_id=CORPUS.fingerprint,
        **kwargs,
    )


def resume_figures(directory: Path) -> dict:
    """Resume copies of both crashed runs; what this build reports."""
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        for name in ("warm_run", "warm_ledger"):
            shutil.copy(directory / f"{name}.wal", work)
            shutil.copy(directory / f"{name}.cache.jsonl", work)
        checkpoint = RunCheckpoint(work / "warm_run.wal")
        run = run_imputation(work / "warm_run.cache.jsonl", checkpoint=checkpoint)
        stream = run_stream(
            work / "warm_ledger.cache.jsonl", ledger_path=work / "warm_ledger.wal"
        )
    return {
        "run": {
            "cache_entries_pruned": checkpoint.stats.cache_entries_pruned,
            "replayed_chunks": checkpoint.stats.replayed_chunks,
            "cost": run.cost,
            "llm_calls": run.llm_calls,
            "cached_calls": run.cached_calls,
            "predictions": run.predictions,
        },
        "stream": {
            "cache_entries_pruned": stream.recovery["cache_entries_pruned"],
            "replayed_shards": stream.recovery["replayed_shards"],
            "cost": stream.cost.cost,
            "served_calls": stream.cost.served_calls,
            "cached_calls": stream.cost.cached_calls,
            "outputs": stream.outputs,
        },
    }


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    mixed = PromptCache(path=out / "cache_mixed.jsonl")
    for key, response in mixed_entries():
        mixed.put(key, response)
    mixed.close()

    # A run over 12 records, the first 4 already cached, killed once its
    # first chunk (8 records: 4 hits, 4 paid) is journalled.
    run_imputation(out / "warm_run.cache.jsonl", records=BUY[:4])
    crash = CrashPoint("chunk:journaled", hits=1)
    try:
        run_imputation(
            out / "warm_run.cache.jsonl",
            checkpoint=RunCheckpoint(out / "warm_run.wal", crash=crash),
        )
    except CrashInjected:
        pass
    # A stream of 24 pairs, the first 5 already cached, killed once its
    # first shard (8 pairs: 5 hits, 3 paid) is journalled.
    run_stream(out / "warm_ledger.cache.jsonl", pairs=itertools.islice(CORPUS.inputs(), 5))
    try:
        run_stream(
            out / "warm_ledger.cache.jsonl",
            ledger_path=out / "warm_ledger.wal",
            crash=CrashPoint("shard:journaled", hits=1),
        )
    except CrashInjected:
        pass
    figures = {
        "mixed_digests": [key_digest(key) for key, _ in mixed_entries()],
        **resume_figures(out),
    }
    (out / "warm_figures.json").write_text(
        json.dumps(figures, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main(Path(sys.argv[1]))
