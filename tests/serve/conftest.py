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

from repro.llm.providers import LLMProvider, LLMRequest, LLMResponse
from repro.serve import JobQueue, JobServer, JobSpec

#: Small dataset refs for the three demo apps — big enough to exercise
#: chunked parallel execution (several chunks at the default chunk size),
#: small enough to run hundreds of jobs in the chaos suite.
DATASET_REFS = {
    "er": {"name": "beer", "seed": 7},
    "names": {"seed": 3, "n_documents": 24},
    "imputation": {"seed": 11, "n_train": 8, "n_test": 24},
}


def make_spec(task: str, tenant: str = "acme", workers: int = 1, **options) -> JobSpec:
    options = {"workers": workers, **options}
    return JobSpec(
        tenant=tenant, task=task, dataset=dict(DATASET_REFS[task]), options=options
    )


@pytest.fixture
def serve_dir(tmp_path):
    return tmp_path / "serve"


@pytest.fixture
def queue(serve_dir):
    queue = JobQueue(serve_dir, max_workers=4)
    yield queue
    if not queue._killed:
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

    def cancel(self, job_id: str):
        return self.request("POST", f"/jobs/{job_id}/cancel")


@pytest.fixture
def client(server):
    return ApiClient(server.host, server.port)


class GateProvider(LLMProvider):
    """Deterministic provider that blocks at a call-count threshold.

    The kill/restart tests need the server to die *mid-run*, at a
    reproducible point: after ``gate_after`` total calls the provider
    parks every caller on an event until the test (having killed the
    queue) releases them — workers then observe their cancellation token
    at the next chunk boundary.  Answers delegate to the wrapped provider,
    so gated runs stay byte-identical to ungated ones.
    """

    def __init__(self, inner: LLMProvider, gate_after: int | None = None):
        self.inner = inner
        self.model_name = inner.cache_identity()
        self.gate_after = gate_after
        self.release = threading.Event()
        self.gated = threading.Event()
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
        return self.inner.complete(request)

    def complete_batch(self, requests: list[LLMRequest]) -> list[LLMResponse]:
        return [self.complete(request) for request in requests]
