"""Shared fixtures for the serving-layer suite.

Everything runs over real sockets and real threads, but **no wall-clock
behaviour**: job execution accrues virtual latency only, and every wait is
a bounded condition wait that fails loud instead of a polling sleep.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.llm.faults import CrashInjected
from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse
from repro.serve import JobQueue, JobServer, JobSpec

#: Small dataset refs for the three demo apps — big enough to exercise
#: chunked parallel execution (several chunks at the default chunk size),
#: small enough to run hundreds of jobs in the chaos suite — plus the
#: curation family's corpora and the ``dsl`` row's inline inputs.
DATASET_REFS = {
    "er": {"name": "beer", "seed": 7},
    "names": {"seed": 3, "n_documents": 24},
    "imputation": {"seed": 11, "n_train": 8, "n_test": 24},
    "dedup": {"n_docs": 48, "seed": 13},
    "quality_filter": {"n_docs": 48, "seed": 13},
    "decontamination": {"n_docs": 48, "seed": 13},
    "dsl": {
        "inputs": {
            "records": [
                {"name": name, "description": description, "manufacturer": None}
                for name, description in (
                    ("diNovo Mount Kit", "Official Logitech Mount Kit."),
                    ("Apple MacBook Console", "Compatible Console for MacBook devices."),
                    ("Cordless 5.8GHz Dock", "GE original accessory."),
                    ("EOS Battery Pack", "Compatible Battery Pack for EOS devices."),
                    ("PlayStation Controller", "game pad"),
                )
            ]
        }
    },
}

#: The program every ``dsl`` spec carries: an LLM imputation written by hand.
DSL_PROGRAM = """
pipeline "served_imputation":
  records = load(source="records")
  imputed = impute(input=records, impl="llm")
  save(input=imputed, key="imputed")
"""


def make_spec(task: str, tenant: str = "acme", workers: int = 1, **options) -> JobSpec:
    options = {"workers": workers, **options}
    return JobSpec(
        tenant=tenant,
        task=task,
        dataset=dict(DATASET_REFS[task]),
        options=options,
        program=DSL_PROGRAM if task == "dsl" else "",
    )


@pytest.fixture
def serve_dir(tmp_path):
    return tmp_path / "serve"


@pytest.fixture
def queue(serve_dir):
    queue = JobQueue(serve_dir, max_workers=4)
    yield queue
    queue.close(drain=False)


@pytest.fixture
def server(queue):
    with JobServer(queue) as server:
        yield server


class ApiClient:
    """Minimal blocking JSON client over ``http.client``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, method: str, path: str, payload=None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            if payload is not None:
                body = json.dumps(payload)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def submit(self, spec: JobSpec):
        return self.request("POST", "/jobs", spec.to_dict())

    def job(self, job_id: str):
        return self.request("GET", f"/jobs/{job_id}")


@pytest.fixture
def client(server):
    return ApiClient(server.host, server.port)


class GateProvider(LLMProvider):
    """Deterministic provider that blocks at a call-count threshold.

    After ``gate_after`` total calls the provider parks every caller on an
    event until the test releases them.  With ``gate_after=0`` the first
    job parks on its first call, which holds the jobs behind it queued.
    The restart tests need the server to die *mid-run*, at a reproducible
    point: :func:`crash` releases the parked calls into
    :class:`~repro.llm.faults.CrashInjected`, as the checkpoint crash
    matrices kill a run.  Answers delegate to the wrapped provider, so
    gated runs stay byte-identical to ungated ones.
    """

    def __init__(self, inner: LLMProvider, gate_after: int | None = None):
        self.inner = inner
        self.model_name = inner.cache_identity()
        self.gate_after = gate_after
        self.release = threading.Event()
        self.gated = threading.Event()
        self.crashed = False
        self.calls = 0
        self._lock = threading.Lock()

    def cache_identity(self) -> str:
        return self.inner.cache_identity()

    def complete(self, request: LLMRequest) -> LLMResponse:
        with self._lock:
            self.calls += 1
            gate = self.gate_after is not None and self.calls > self.gate_after
        if gate:
            self.gated.set()
            if not self.release.wait(timeout=30):
                raise RuntimeError("GateProvider was never released")
            if self.crashed:
                raise CrashInjected("provider call", self.calls)
        return self.inner.complete(request)

    def complete_batch(self, requests: list[LLMRequest]) -> list[LLMResponse]:
        return [self.complete(request) for request in requests]


def crash(queue: JobQueue, gate: GateProvider, timeout: float = 120.0) -> None:
    """Kill ``queue`` mid-run: the CLI's shutdown, then a crash of every worker.

    ``close(drain=False)`` stops dispatch and ledger writes; then every
    provider call parked at (or arriving past) the gate raises
    :class:`~repro.llm.faults.CrashInjected`, so each running job dies where
    it stands and its ledger line still reads ``running``.  The workers are
    joined, so nothing of this incarnation writes once the next one opens
    the directory.
    """
    queue.close(drain=False)
    with queue._lock:
        workers = list(queue._active.values())
    hook = threading.excepthook

    def quiet(args) -> None:  # a crashed worker is the point, not a failure
        if not issubclass(args.exc_type, CrashInjected):
            hook(args)

    threading.excepthook = quiet
    try:
        gate.crashed = True
        gate.release.set()
        for worker in workers:
            worker.join(timeout)
            assert not worker.is_alive(), f"{worker.name} outlived the crash"
    finally:
        threading.excepthook = hook
