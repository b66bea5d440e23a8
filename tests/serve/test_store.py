"""Unit tests for the crash-safe job store (write-ahead JSONL ledger)."""

from __future__ import annotations

import json

import pytest

from repro.serve.jobs import JobSpec
from repro.serve.store import JobStore
from tests.serve.conftest import make_spec


@pytest.fixture
def ledger(tmp_path):
    return tmp_path / "jobs.jsonl"


def test_submit_assigns_sequential_ids(ledger):
    store = JobStore(ledger)
    ids = [store.submit(make_spec("imputation")).job_id for _ in range(3)]
    assert ids == ["job-0001", "job-0002", "job-0003"]
    assert [store.get(i).status for i in ids] == ["queued"] * 3
    store.close()


def test_ledger_survives_reload(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("er", tenant="acme"))
    store.transition(job.job_id, "running", attempts=1)
    store.transition(
        job.job_id,
        "succeeded",
        result={"task": "er", "f1": 1.0},
        progress=[{"event": "run:end", "seq": 1}],
    )
    other = store.submit(make_spec("names", tenant="globex"))
    store.close()

    reloaded = JobStore(ledger)
    done = reloaded.get(job.job_id)
    assert done.status == "succeeded"
    assert done.result == {"task": "er", "f1": 1.0}
    assert done.progress == [{"event": "run:end", "seq": 1}]
    assert done.attempts == 1
    assert reloaded.get(other.job_id).status == "queued"
    # id allocation continues after the highest replayed id
    assert reloaded.submit(make_spec("imputation")).job_id == "job-0003"
    reloaded.close()


def test_running_job_is_resumable_after_reload(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("imputation"))
    store.transition(job.job_id, "running", attempts=1)
    store.close()  # server death: the ledger still says "running"

    reloaded = JobStore(ledger)
    revived = reloaded.get(job.job_id)
    assert revived.status == "resumable"
    assert revived.attempts == 1
    reloaded.close()


def test_kill_writes_nothing(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("imputation"))
    before = ledger.read_bytes()
    store.close()  # a server shut down without draining, then killed
    # Appends after the close are suppressed rather than erroring: its
    # workers may still be running when the store is already closed.
    store.transition(job.job_id, "succeeded", result={"task": "imputation"})
    assert ledger.read_bytes() == before
    assert store.get(job.job_id).status == "queued"  # as the ledger says
    assert JobStore(ledger).get(job.job_id).status == "queued"


def test_torn_tail_is_truncated_not_fatal(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("er"))
    store.transition(job.job_id, "running", attempts=1)
    store.close()
    with ledger.open("ab") as handle:
        handle.write(b'{"kind":"status","job":"job-0001","sta')  # torn write

    reloaded = JobStore(ledger)
    assert reloaded.get(job.job_id).status == "resumable"
    # the torn line is gone from disk, and the ledger is appendable again
    reloaded.transition(job.job_id, "failed", error="gave up")
    reloaded.close()
    lines = ledger.read_text().splitlines()
    assert all(json.loads(line) for line in lines)
    assert JobStore(ledger).get(job.job_id).status == "failed"


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "status", "job": "job-0001", "seq": "x", "status": "failed"},
        {"kind": "status", "job": "job-0001", "seq": 3, "status": "failed", "progress": 5},
        {"kind": "status", "job": "job-0001", "seq": 3, "status": "failed", "attempts": "2"},
        {"kind": "status", "job": "job-0001", "seq": 3, "status": "succeeded", "result": [1]},
        {"kind": "status", "job": 1, "seq": 3, "status": "failed"},
        {"kind": "submit", "job": "job-0002", "seq": 3, "spec": "er"},
        {"kind": "submit", "job": "job-0002", "seq": 3, "spec": {"dataset": 5}},
        {"kind": "submit", "seq": 3, "spec": {}},
    ],
)
def test_a_line_of_wrong_types_is_skipped_and_counted(ledger, bad):
    """A line that parses but carries a wrong-typed field is a damaged line:
    the store starts, skips it, counts it, and the lines after it count."""
    store = JobStore(ledger)
    job = store.submit(make_spec("er"))
    store.transition(job.job_id, "running", attempts=1)
    store.close()
    with ledger.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(bad) + "\n")
    store = JobStore(ledger)
    store.transition(job.job_id, "succeeded", result={"task": "er"})
    store.close()

    reloaded = JobStore(ledger)
    assert reloaded.journal.corrupt_lines == 1
    assert [j.job_id for j in reloaded.jobs()] == [job.job_id]
    done = reloaded.get(job.job_id)
    assert (done.status, done.attempts, done.result) == ("succeeded", 1, {"task": "er"})
    assert done.status_seq == 3  # the skipped line's seq is not counted
    reloaded.close()


def test_ledger_carries_no_wall_clock_fields(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("names"))
    store.transition(job.job_id, "succeeded", result={"task": "names"})
    store.close()
    for line in ledger.read_text().splitlines():
        record = json.loads(line)
        assert not any("time" in key or "stamp" in key for key in record)
        assert isinstance(record["seq"], int)


def test_transition_rejects_unknown_status(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("imputation"))
    with pytest.raises(ValueError):
        store.transition(job.job_id, "exploded")
    store.close()


def test_jobs_filter_by_tenant(ledger):
    store = JobStore(ledger)
    store.submit(make_spec("er", tenant="acme"))
    store.submit(make_spec("names", tenant="globex"))
    store.submit(make_spec("imputation", tenant="acme"))
    assert [j.spec.task for j in store.jobs(tenant="acme")] == ["er", "imputation"]
    assert [j.spec.task for j in store.jobs()] == ["er", "names", "imputation"]
    store.close()


def test_wait_for_is_bounded_and_fail_loud(ledger):
    store = JobStore(ledger)
    job = store.submit(make_spec("imputation"))
    with pytest.raises(TimeoutError, match="currently 'queued'"):
        store.wait_for(job.job_id, timeout=0.05)
    with pytest.raises(TimeoutError, match="<missing>"):
        store.wait_for("job-9999", timeout=0.05)
    store.transition(job.job_id, "succeeded", result={"task": "imputation"})
    assert store.wait_for(job.job_id, timeout=0.05).status == "succeeded"
    store.close()


def test_to_dict_round_trips_spec(ledger):
    spec = JobSpec(
        tenant="acme",
        task="dsl",
        dataset={"inputs": {"text": "hello"}},
        options={"workers": 2},
        program="x = extract(text)",
    )
    store = JobStore(ledger)
    job = store.submit(spec)
    store.close()
    reloaded = JobStore(ledger).get(job.job_id)
    assert reloaded.spec == spec
    payload = reloaded.to_dict()
    assert payload["job_id"] == job.job_id
    assert payload["tenant"] == "acme"
    assert payload["status"] == "queued"
    assert "result" not in payload
