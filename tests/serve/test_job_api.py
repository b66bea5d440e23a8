"""Golden-response regression tests for the HTTP job API.

Every status/progress payload the API returns is canonical JSON with no
wall-clock fields, so the full response bodies for the three demo apps —
cold and warm — are pinned byte-for-byte as golden fixtures under
``tests/serve/golden_api/``.  A change in job payloads, progress events,
metric rounding or sequence numbering shows up as a fixture diff, not a
silent drift.

Regenerate after an intentional change with::

    REGEN_GOLDEN_API=1 PYTHONPATH=src python -m pytest tests/serve/test_job_api.py

Error paths (malformed JSON, unknown routes, quota refusals) are asserted
inline — they are part of the API contract too.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.serve import JobQueue, JobServer
from repro.serve.admission import TenantQuota
from repro.serve.jobs import canonical_json
from tests.serve.conftest import ApiClient, make_spec

GOLDEN_DIR = Path(__file__).parent / "golden_api"
REGEN = os.environ.get("REGEN_GOLDEN_API") == "1"


def _check_golden(name: str, payload: dict) -> None:
    text = canonical_json(payload) + "\n"
    path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), (
        f"golden fixture {path.name} is missing; regenerate with "
        "REGEN_GOLDEN_API=1"
    )
    assert text == path.read_text(encoding="utf-8"), (
        f"API payload for {name!r} drifted from its golden fixture; if the "
        "change is intentional, regenerate with REGEN_GOLDEN_API=1"
    )


@pytest.mark.parametrize("task", ["er", "names", "imputation"])
def test_job_payloads_match_golden(task, queue, client):
    # cold: fresh tenant cache, every answer paid at the provider
    status, accepted = client.submit(make_spec(task))
    assert status == 202
    assert accepted["job_id"] == "job-0001"
    # the 202 snapshot races the pool worker: either not-yet-dispatched
    # or already running, but never terminal
    assert accepted["status"] in ("queued", "running")
    queue.store.wait_for(accepted["job_id"])
    status, cold = client.job(accepted["job_id"])
    assert status == 200 and cold["status"] == "succeeded"

    # warm: same tenant resubmits the same spec against its journal
    status, accepted = client.submit(make_spec(task))
    assert status == 202
    queue.store.wait_for(accepted["job_id"])
    status, warm = client.job(accepted["job_id"])
    assert status == 200 and warm["status"] == "succeeded"

    # warm really was warm: the cache answered, the provider did not
    assert warm["result"]["cached_calls"] > 0
    assert warm["result"]["cost"] < cold["result"]["cost"]
    # same inputs -> same answers; only the cost provenance differs
    for metric in ("f1", "precision", "recall", "accuracy"):
        if metric in cold["result"]:
            assert warm["result"][metric] == cold["result"][metric]

    _check_golden(f"{task}_cold", cold)
    _check_golden(f"{task}_warm", warm)


def test_health_and_listing(queue, client):
    status, health = client.request("GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["stats"]["jobs"] == {}

    job = queue.submit(make_spec("imputation", tenant="acme"))
    queue.store.wait_for(job.job_id)
    status, listing = client.request("GET", "/jobs")
    assert status == 200
    assert [j["job_id"] for j in listing["jobs"]] == [job.job_id]
    # listings are summaries: progress rides only on single-job fetches
    assert "progress" not in listing["jobs"][0]

    status, filtered = client.request("GET", "/jobs?tenant=globex")
    assert status == 200 and filtered["jobs"] == []


def test_cancel_over_http(serve_dir):
    queue = JobQueue(serve_dir, max_workers=1, start=False)
    with JobServer(queue) as server:
        client = ApiClient(server.host, server.port)
        _, accepted = client.submit(make_spec("imputation"))
        status, cancelled = client.cancel(accepted["job_id"])
        assert status == 200 and cancelled["status"] == "cancelled"
        status, _ = client.cancel("job-9999")
        assert status == 404
    queue.close(drain=False)


def test_error_paths(queue, client, server):
    status, body = client.request("POST", "/jobs", {"tenant": "acme", "task": "x"})
    assert status == 400 and "unknown task" in body["error"]

    status, body = client.request("GET", "/jobs/job-9999")
    assert status == 404

    status, body = client.request("DELETE", "/jobs")
    assert status == 405

    status, body = client.request("GET", "/nope")
    assert status == 404

    # raw non-JSON body
    import http.client

    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("POST", "/jobs", body=b"{not json")
        response = connection.getresponse()
        assert response.status == 400
    finally:
        connection.close()

    assert queue.store.jobs() == []  # nothing refused left a ledger trace


def test_quota_refusal_maps_to_429(serve_dir):
    queue = JobQueue(
        serve_dir,
        max_workers=1,
        default_quota=TenantQuota(max_queued=1, max_running=1),
        start=False,
    )
    with JobServer(queue) as server:
        client = ApiClient(server.host, server.port)
        status, _ = client.submit(make_spec("imputation"))
        assert status == 202
        status, refused = client.submit(make_spec("imputation"))
        assert status == 429 and "queued jobs" in refused["error"]
    queue.close(drain=False)


def test_shutdown_maps_to_503(serve_dir):
    queue = JobQueue(serve_dir, max_workers=1)
    with JobServer(queue) as server:
        client = ApiClient(server.host, server.port)
        queue.close()
        status, refused = client.submit(make_spec("imputation"))
        assert status == 503 and "shut down" in refused["error"]


def _raw_request(server, payload: bytes) -> bytes:
    """One raw HTTP exchange; tolerates the server answering mid-send."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        try:
            sock.sendall(payload)
        except OSError:
            pass  # server already responded and closed its read side
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except OSError:
            pass
        return b"".join(chunks)


def test_malformed_content_length_maps_to_400(server):
    response = _raw_request(
        server, b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
    )
    assert response.startswith(b"HTTP/1.1 400 ")


def test_negative_content_length_maps_to_400(server):
    response = _raw_request(
        server, b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    )
    assert response.startswith(b"HTTP/1.1 400 ")


def test_oversized_body_maps_to_413(server):
    from repro.serve.server import MAX_BODY_BYTES

    head = f"POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
    response = _raw_request(server, head.encode("ascii"))
    assert response.startswith(b"HTTP/1.1 413 ")


def test_unbounded_header_stream_maps_to_400(server):
    """A client streaming headers forever must be cut off, not looped on."""
    from repro.serve.server import MAX_HEADER_BYTES

    filler = b"X-Filler: " + b"a" * 1013 + b"\r\n"  # 1 KiB per line
    lines = MAX_HEADER_BYTES // len(filler) + 2
    payload = b"GET /healthz HTTP/1.1\r\n" + filler * lines  # no terminator
    response = _raw_request(server, payload)
    assert response.startswith(b"HTTP/1.1 400 ")
