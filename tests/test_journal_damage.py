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

import json
import re

import pytest

from repro.core.runtime.checkpoint import (
    JOURNAL_FORMAT_VERSION,
    CheckpointError,
    RunCheckpoint,
)
from repro.core.runtime.system import LinguaManga
from repro.core.runtime.workqueue import SHARD_LEDGER_FORMAT_VERSION, ShardLedger
from repro.core.templates.library import get_template
from repro.datasets import StreamingERCorpus
from repro.datasets.entity_resolution import generate_er_dataset
from repro.llm.cache import PromptCache
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.serve.store import JobStore
from repro.tasks.entity_resolution import run_lingua_manga_er
from tests.conftest import assert_reports_identical
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


@pytest.mark.parametrize(
    "owner, noun, version",
    [
        ("run-journal", "journal", JOURNAL_FORMAT_VERSION),
        ("shard-ledger", "ledger", SHARD_LEDGER_FORMAT_VERSION),
    ],
)
def test_a_version_1_journal_is_refused_unchanged(owner, noun, version, tmp_path):
    """A journal of another format is not read: the refusal names the file,
    both versions and what to do, and nothing is appended to the file."""
    kind = KINDS[owner]
    path = tmp_path / "journal.jsonl"
    header, *rest = filled(kind, path).splitlines(keepends=True)
    older = json.dumps({**json.loads(header), "format": 1}).encode() + b"\n" + b"".join(rest)
    path.write_bytes(older)
    message = (
        f"{path}: {noun} format 1, but this build reads format {version} only; "
        "delete the file or pass resume=False to start afresh"
    )
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        kind.open(path)
    assert path.read_bytes() == older


@pytest.mark.parametrize("owner", ["run-journal", "shard-ledger"])
def test_a_refused_journal_keeps_its_torn_tail(owner, tmp_path):
    """The header is checked before the load cuts a torn tail, so a refused
    journal's bytes are what the user had."""
    kind = KINDS[owner]
    path = tmp_path / "journal.jsonl"
    header, *rest = filled(kind, path).splitlines(keepends=True)
    older = (
        json.dumps({**json.loads(header), "format": 1}).encode() + b"\n"
        + b"".join(rest) + b'{"type": "chunk", "op'
    )
    path.write_bytes(older)
    with pytest.raises(CheckpointError, match="format 1"):
        kind.open(path)
    assert path.read_bytes() == older


def test_a_committed_operator_missing_a_chunk_line_reruns_that_chunk(tmp_path):
    """A committed operator replays from its chunk lines, so a line skipped
    as damaged is one chunk paid for again, and the report is unchanged."""
    dataset = generate_er_dataset("beer", seed=7, n_entities=30)

    def run(**kwargs):
        provider = SimulatedProvider()
        system = LinguaManga(service=LLMService(provider))
        result = run_lingua_manga_er(
            system, dataset, workers=1, chunk_size=2, **kwargs
        )
        return result.report.canonical_json(), provider.calls_served

    clean, paid = run()
    path = tmp_path / "journal.jsonl"
    run(checkpoint=RunCheckpoint(path))
    lines = path.read_bytes().splitlines(keepends=True)
    target = next(
        index
        for index, line in enumerate(lines)
        if json.loads(line)["type"] == "chunk" and json.loads(line)["records"]["rows"]
    )
    rows = json.loads(lines[target])["records"]["rows"]
    lines[target] = b"#" + lines[target][1:]
    path.write_bytes(b"".join(lines))

    checkpoint = RunCheckpoint(path)
    resumed, repaid = run(checkpoint=checkpoint)
    assert resumed == clean
    assert checkpoint.stats.corrupt_lines == 1
    assert 0 < repaid == len(rows) < paid


def _damage_block(block: dict, damage: str) -> None:
    """Cut the last two columns (``version``, ``model``) from every row, or
    rename one field to a name :class:`CallRecord` does not have."""
    if damage == "short-rows":
        block["rows"] = [row[:-2] for row in block["rows"]]
    else:
        block["fields"][block["fields"].index("model")] = "colour"


DAMAGES = ["short-rows", "unknown-field"]


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_chunk_line_whose_records_do_not_decode_reruns_that_chunk(damage, tmp_path):
    """A record block that does not decode damages its chunk line: skipped
    and counted at load, so its chunk is paid for again, and the report and
    the ledger equal the uninterrupted run's."""
    dataset = generate_er_dataset("beer", seed=7, n_entities=30)

    def run(**kwargs):
        provider = SimulatedProvider()
        system = LinguaManga(service=LLMService(provider))
        result = run_lingua_manga_er(
            system, dataset, workers=1, chunk_size=2, **kwargs
        )
        return (
            result.report.canonical_json(), system.service.records,
            provider.calls_served,
        )

    clean, ledger, paid = run()
    path = tmp_path / "journal.jsonl"
    run(checkpoint=RunCheckpoint(path))
    lines = path.read_bytes().splitlines(keepends=True)
    target = next(
        index
        for index, line in enumerate(lines)
        if json.loads(line)["type"] == "chunk" and json.loads(line)["records"]["rows"]
    )
    line = json.loads(lines[target])
    _damage_block(line["records"], damage)
    lines[target] = json.dumps(line).encode() + b"\n"
    path.write_bytes(b"".join(lines))

    checkpoint = RunCheckpoint(path)
    resumed, resumed_ledger, repaid = run(checkpoint=checkpoint)
    assert resumed == clean
    assert resumed_ledger == ledger
    assert checkpoint.stats.corrupt_lines == 1
    assert 0 < repaid == len(line["records"]["rows"]) < paid


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_shard_line_whose_records_do_not_decode_reruns_that_shard(damage, tmp_path):
    """The same rule for the shard ledger: the damaged shard runs again."""
    corpus = StreamingERCorpus(48, seed=7)
    pipeline = get_template("entity_resolution").instantiate(examples=corpus.examples())

    def run(ledger_path):
        provider = SimulatedProvider()
        system = LinguaManga(service=LLMService(provider))
        report = system.run_stream(
            pipeline, {"pairs": corpus.inputs()}, workers=1, chunk_size=8,
            ledger_path=ledger_path, source_id=corpus.fingerprint,
        )
        return report, system.service.records, provider.calls_served

    path = tmp_path / "ledger.jsonl"
    clean, ledger, paid = run(path)
    lines = path.read_bytes().splitlines(keepends=True)
    target = next(
        index
        for index, line in enumerate(lines)
        if json.loads(line)["type"] == "shard"
        and json.loads(line)["ops"][0]["records"]["rows"]
    )
    line = json.loads(lines[target])
    block = line["ops"][0]["records"]
    _damage_block(block, damage)
    lines[target] = json.dumps(line).encode() + b"\n"
    path.write_bytes(b"".join(lines))

    resumed, resumed_ledger, repaid = run(path)
    assert_reports_identical(clean, resumed)
    assert resumed_ledger == ledger
    assert resumed.recovery["corrupt_lines"] == 1
    assert resumed.recovery["replayed_shards"] == resumed.recovery["shards"] - 1
    assert 0 < repaid == len(block["rows"]) < paid


#: A field value that stands for the field taken out of the line.
MISSING = object()


def _edited(line: dict, fields: dict) -> dict:
    """``line`` with ``fields`` set, or taken out where :data:`MISSING`: from
    the line, or from each op entry of a shard line that lacks the field."""
    edited = {**line, **fields}
    for field, value in fields.items():
        if value is MISSING:
            del edited[field]
            if field not in line:
                edited["ops"] = [
                    {key: item for key, item in op.items() if key != field}
                    for op in line["ops"]
                ]
    return edited


#: A run-journal line edited to valid JSON that cannot replay:
#: ``(line type, fields to set)``.
RUN_LINE_DAMAGES = {
    "chunk-op-not-int": ("chunk", {"op": "x"}),
    "chunk-index-not-int": ("chunk", {"chunk": "one"}),
    "op-index-not-int": ("op", {"index": "z"}),
    "outputs-do-not-decode": ("chunk", {"outputs": {"__ckpt__": "tuple", "v": 5}}),
    "chunk-without-quarantine": ("chunk", {"quarantine": MISSING}),
    "chunk-without-degraded": ("chunk", {"degraded": MISSING}),
    "chunk-without-n-records": ("chunk", {"n_records": MISSING}),
}


@pytest.mark.parametrize("damage", sorted(RUN_LINE_DAMAGES))
def test_a_run_journal_line_of_wrong_types_is_skipped(damage, tmp_path):
    """A line that parses but whose fields are of the wrong type or missing,
    or whose outputs do not decode, is skipped and counted like any damaged line:
    its chunk runs again (an ``op`` line lost leaves its operator in
    flight), and the report and the ledger equal the uninterrupted run's."""
    corpus = StreamingERCorpus(24, seed=7)
    pairs = list(corpus.inputs())
    pipeline = get_template("entity_resolution").instantiate(examples=corpus.examples())

    def run(**kwargs):
        provider = SimulatedProvider()
        system = LinguaManga(service=LLMService(provider))
        report = system.run(
            pipeline, {"pairs": pairs}, workers=1, chunk_size=8, **kwargs
        )
        return report.canonical_json(), system.service.records, provider.calls_served

    clean, ledger, paid = run()
    path = tmp_path / "journal.jsonl"
    run(checkpoint_path=path)
    kind, fields = RUN_LINE_DAMAGES[damage]
    lines = path.read_bytes().splitlines(keepends=True)
    target = next(
        index
        for index, line in enumerate(lines)
        if json.loads(line)["type"] == kind
        and (kind == "op" or json.loads(line)["records"]["rows"])
    )
    line = json.loads(lines[target])
    rows = len(line["records"]["rows"]) if kind == "chunk" else 0
    lines[target] = json.dumps(_edited(line, fields)).encode() + b"\n"
    path.write_bytes(b"".join(lines))

    checkpoint = RunCheckpoint(path)
    resumed, resumed_ledger, repaid = run(checkpoint=checkpoint)
    assert resumed == clean
    assert resumed_ledger == ledger
    assert checkpoint.stats.corrupt_lines == 1
    assert repaid == rows < paid


#: The same for a shard-ledger line.
SHARD_LINE_DAMAGES = {
    "index-not-int": {"index": "one"},
    "n-records-not-int": {"n_records": "eight"},
    "outputs-do-not-decode": {"outputs": {"__ckpt__": "tuple", "v": 5}},
    "without-n-records": {"n_records": MISSING},
    "op-without-quarantine": {"quarantine": MISSING},
    "op-without-degraded": {"degraded": MISSING},
}


@pytest.mark.parametrize("damage", sorted(SHARD_LINE_DAMAGES))
def test_a_shard_line_of_wrong_types_is_skipped(damage, tmp_path):
    """The damaged shard runs again; the report and the ledger do not change."""
    corpus = StreamingERCorpus(24, seed=7)
    pipeline = get_template("entity_resolution").instantiate(examples=corpus.examples())

    def run(ledger_path):
        provider = SimulatedProvider()
        system = LinguaManga(service=LLMService(provider))
        report = system.run_stream(
            pipeline, {"pairs": corpus.inputs()}, workers=1, chunk_size=8,
            ledger_path=ledger_path, source_id=corpus.fingerprint,
        )
        return report, system.service.records, provider.calls_served

    path = tmp_path / "ledger.jsonl"
    clean, ledger, paid = run(path)
    lines = path.read_bytes().splitlines(keepends=True)
    target = next(
        index
        for index, line in enumerate(lines)
        if json.loads(line)["type"] == "shard"
        and json.loads(line)["ops"][0]["records"]["rows"]
    )
    line = json.loads(lines[target])
    lines[target] = json.dumps(_edited(line, SHARD_LINE_DAMAGES[damage])).encode() + b"\n"
    path.write_bytes(b"".join(lines))

    resumed, resumed_ledger, repaid = run(path)
    assert_reports_identical(clean, resumed)
    assert resumed_ledger == ledger
    assert resumed.recovery["corrupt_lines"] == 1
    assert resumed.recovery["replayed_shards"] == resumed.recovery["shards"] - 1
    assert 0 < repaid == len(line["ops"][0]["records"]["rows"]) < paid
