"""The crash-safe job store: a write-ahead JSONL ledger plus an in-memory view.

Durability rides on :class:`~repro._jsonl.CheckpointJournal`, the
primitive all four journals share (its fsync, damaged-line and compaction
rules are stated in :mod:`repro._jsonl`), so the job queue inherits the
crash discipline the run checkpoints prove: an acknowledged submission
survives a process kill, a torn final line is truncated on load, and a
damaged line costs that one record, not every job after it.

The ledger holds two record kinds::

    {"kind": "submit", "job": "job-0001", "seq": 1, "spec": {...}}
    {"kind": "status", "job": "job-0001", "seq": 2, "status": "running", ...}

``seq`` is a monotonic logical sequence number — the ledger carries **no
wall-clock timestamps**, which is what makes job payloads (and the golden
API fixtures) byte-stable across runs.  A line that parses but carries a
field of the wrong type is a damaged line like any other: skipped and
counted in the journal's ``corrupt_lines``.

Crash semantics fall out of the fold: a job whose last status is
``running`` when the ledger is reloaded was interrupted by a server death
— the restarted store reports it ``resumable`` and the queue re-runs it
from its checkpoint journal.  A closed store neither appends nor changes a
job, so a server shut down without draining leaves the same ``running``
line a crash does, in memory as on disk.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Iterable

from repro._jsonl import CheckpointJournal
from repro.serve.jobs import JOB_STATUSES, TERMINAL_STATUSES, JobSpec

__all__ = ["JobRecord", "JobStore"]

#: The type each ledger field must have when a line carries it.
_FIELD_TYPES = (
    ("job", str),
    ("seq", int),
    ("attempts", int),
    ("progress", list),
    ("result", dict),
    ("spec", dict),
)


def _decode_line(record: Any) -> dict:
    """One ledger line, type-checked, its spec a :class:`JobSpec`.

    Raises on a line of the wrong types, which the journal then skips and
    counts, so one bad line costs its own record, not the store's start.
    """
    if type(record) is not dict:
        raise TypeError("a ledger line must be a JSON object")
    for name, kind in _FIELD_TYPES:
        if name in record and type(record[name]) is not kind:
            raise TypeError(f"ledger field {name!r} must be {kind.__name__}")
    if record.get("kind") == "submit":
        if "job" not in record:
            raise KeyError("a submit line names its job")
        record["spec"] = JobSpec.from_dict(record["spec"])
    return record


class _LedgerJournal(CheckpointJournal):
    """The job ledger's journal: a line of the wrong types is damaged."""

    _decode = staticmethod(_decode_line)


class JobRecord:
    """Mutable in-memory view of one job (the store guards mutation)."""

    def __init__(self, job_id: str, spec: JobSpec, seq: int):
        self.job_id = job_id
        self.spec = spec
        self.seq = seq  # ledger seq of the submit record
        self.status = "queued"
        self.status_seq = seq
        self.result: dict | None = None
        self.error: str = ""
        self.progress: list[dict] = []
        self.attempts = 0  # times the queue started (or restarted) this job
        self.resumed = False  # last start replayed an existing checkpoint

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def to_dict(self, progress: bool = True) -> dict:
        """Canonical payload for the HTTP API (no wall-clock fields)."""
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "task": self.spec.task,
            "status": self.status,
            "seq": self.status_seq,
            "attempts": self.attempts,
            "resumed": self.resumed,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error:
            payload["error"] = self.error
        if progress:
            payload["progress"] = list(self.progress)
        return payload


class JobStore:
    """Thread-safe job table backed by the write-ahead ledger.

    Status transitions append to the ledger *before* they are visible in
    memory (write-ahead).  ``wait_for`` gives tests and the server a
    bounded, fail-loud way to await a status without polling sleeps.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.journal = _LedgerJournal(self.path)
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._seq = 0
        self._next_id = 1
        self._closed = False
        self._load()

    # -- ledger replay -----------------------------------------------------------

    def _load(self) -> None:
        for record in self.journal.load():
            kind = record.get("kind")
            self._seq = max(self._seq, record.get("seq", 0))
            if kind == "submit":
                job_id = record["job"]
                job = JobRecord(job_id, record["spec"], record.get("seq", 0))
                self._jobs[job_id] = job
                self._order.append(job_id)
                try:
                    number = int(job_id.rsplit("-", 1)[-1])
                except ValueError:
                    number = len(self._jobs)
                self._next_id = max(self._next_id, number + 1)
            elif kind == "status":
                job = self._jobs.get(record.get("job", ""))
                if job is None:
                    continue
                status = str(record.get("status", ""))
                if status not in JOB_STATUSES:
                    continue
                job.status = status
                job.status_seq = record.get("seq", job.status_seq)
                job.result = record.get("result")
                job.error = str(record.get("error", ""))
                job.progress = record.get("progress", [])
                job.attempts = record.get("attempts", job.attempts)
                job.resumed = bool(record.get("resumed", job.resumed))
        # A job mid-flight when the process died never wrote a terminal
        # status: surface it as resumable so the queue re-runs it from its
        # checkpoint.  Queued jobs simply re-enter the queue.
        for job in self._jobs.values():
            if job.status == "running":
                job.status = "resumable"

    # -- submission and transitions ----------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        with self._lock:
            job_id = f"job-{self._next_id:04d}"
            self._next_id += 1
            self._seq += 1
            job = JobRecord(job_id, spec, self._seq)
            self.journal.append(
                {
                    "kind": "submit",
                    "job": job_id,
                    "seq": self._seq,
                    "spec": spec.to_dict(),
                }
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._changed.notify_all()
            return job

    def transition(
        self,
        job_id: str,
        status: str,
        result: dict | None = None,
        error: str = "",
        progress: list[dict] | None = None,
        attempts: int | None = None,
        resumed: bool | None = None,
    ) -> JobRecord:
        """Append a status record and update the in-memory view (closed: neither)."""
        if status not in JOB_STATUSES:
            raise ValueError(f"unknown status {status!r}")
        with self._lock:
            job = self._jobs[job_id]
            if self._closed:  # the view stays what the ledger says
                return job
            self._seq += 1
            if attempts is not None:
                job.attempts = attempts
            if resumed is not None:
                job.resumed = resumed
            record: dict[str, Any] = {
                "kind": "status",
                "job": job_id,
                "seq": self._seq,
                "status": status,
                "attempts": job.attempts,
                "resumed": job.resumed,
            }
            if result is not None:
                record["result"] = result
            if error:
                record["error"] = error
            if progress is not None:
                record["progress"] = progress
            self.journal.append(record)
            job.status = status
            job.status_seq = self._seq
            job.result = result
            job.error = error
            if progress is not None:
                job.progress = progress
            self._changed.notify_all()
            return job

    # -- lookup ------------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        if tenant is not None:
            jobs = [job for job in jobs if job.spec.tenant == tenant]
        return jobs

    def statuses(self) -> dict[str, str]:
        with self._lock:
            return {job_id: self._jobs[job_id].status for job_id in self._order}

    def wait_for(
        self,
        job_id: str,
        statuses: Iterable[str] = TERMINAL_STATUSES,
        timeout: float = 30.0,
    ) -> JobRecord:
        """Block until the job reaches one of ``statuses``; fail loud.

        A bounded condition wait, not a polling sleep: waiters wake on
        every transition and the deadline exists only to turn a hung queue
        into a test failure instead of a hang.
        """
        wanted = set(statuses)
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is not None and job.status in wanted:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    current = job.status if job is not None else "<missing>"
                    raise TimeoutError(
                        f"job {job_id} did not reach {sorted(wanted)} within "
                        f"{timeout}s (currently {current!r})"
                    )
                self._changed.wait(remaining)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Settle fsyncs and release the file handle; a later submit raises."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()
        self.journal.close()
