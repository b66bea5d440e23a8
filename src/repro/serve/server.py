"""A stdlib-asyncio HTTP/1.1 front end over the job queue.

No web framework: requests are parsed off ``asyncio.start_server``
streams directly (request line, headers, ``Content-Length`` body) and
answered with canonical JSON.  The event loop only *parses and routes* —
every queue operation it calls (submit, get, list) is a short
lock-guarded memory-or-append operation, so the loop never blocks on job
execution; jobs run on the queue's own worker threads.  A job cannot be
cancelled: it ends terminal, or with the server, and then resumes.

Routes::

    GET  /healthz            liveness + queue stats
    POST /jobs               submit  {tenant, task, dataset?, options?, program?}
    GET  /jobs               list    (?tenant=<name> to filter)
    GET  /jobs/<id>          status + result + tracer-derived progress events

Status codes: 202 accepted, 200 ok, 400 malformed request or headers,
404 unknown job, 413 oversized body, 429 quota refused,
503 shutting down.

:class:`JobServer` runs the loop in a daemon thread so tests (and
``python -m repro.serve``) can drive it over real sockets with the
blocking stdlib ``http.client``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.jobs import JobError, JobSpec, canonical_json
from repro.serve.queue import JobQueue, QuotaExceeded

__all__ = ["JobServer", "MAX_BODY_BYTES", "MAX_HEADER_BYTES"]

#: Submission bodies larger than this are refused (dataset refs are tiny;
#: a huge body is a client error, not a job).
MAX_BODY_BYTES = 1_000_000

#: Combined request-line + header bytes beyond this are refused with 400,
#: so a client streaming headers forever cannot tie up the event loop.
MAX_HEADER_BYTES = 32_768

# Sentinel "bodies" _read_request hands to _route in place of a real one;
# real bodies are JSON and can never start with a NUL byte.
_BAD_HEADERS = b"\x00malformed"
_BODY_TOO_LARGE = b"\x00oversized"

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


def _response(status: int, payload: Any) -> bytes:
    body = canonical_json(payload).encode("utf-8")
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


class JobServer:
    """Serve a :class:`JobQueue` over HTTP; lifecycle-managed for tests."""

    def __init__(self, queue: JobQueue, host: str = "127.0.0.1", port: int = 0):
        self.queue = queue
        self.host = host
        self.port = port  # 0 = ephemeral; resolved on start
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    # -- request handling --------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except ValueError:
            return ("", "", b"")
        content_length = 0
        header_bytes = len(request_line)
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(line)
            if header_bytes > MAX_HEADER_BYTES:
                return (method.upper(), target, _BAD_HEADERS)
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return (method.upper(), target, _BAD_HEADERS)
                if content_length < 0:
                    return (method.upper(), target, _BAD_HEADERS)
        if content_length > MAX_BODY_BYTES:
            return (method.upper(), target, _BODY_TOO_LARGE)
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
        return (method.upper(), target, body)

    def _route(self, method: str, target: str, body: bytes) -> tuple[int, Any]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        if body == _BAD_HEADERS:
            return 400, {"error": "malformed or oversized request headers"}
        if body.startswith(b"\x00"):
            return 413, {"error": "request body too large"}
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", "stats": self.queue.stats()}
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path == "/jobs" and method == "GET":
            query = parse_qs(parts.query)
            tenant = query.get("tenant", [None])[0]
            return 200, {
                "jobs": [
                    job.to_dict(progress=False)
                    for job in self.queue.store.jobs(tenant=tenant)
                ]
            }
        if path.startswith("/jobs/") and method == "GET":
            job_id = path[len("/jobs/") :]
            if "/" not in job_id:
                job = self.queue.store.get(job_id)
                if job is None:
                    return 404, {"error": f"unknown job {job_id!r}"}
                return 200, job.to_dict()
        return (405 if path in ("/jobs", "/healthz") else 404), {
            "error": f"no route for {method} {path}"
        }

    def _submit(self, body: bytes) -> tuple[int, Any]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "request body is not valid JSON"}
        try:
            spec = JobSpec.from_dict(payload)
            job = self.queue.submit(spec)
        except JobError as error:
            return 400, {"error": str(error)}
        except QuotaExceeded as error:
            return (429 if error.retryable else 503), {"error": error.reason}
        return 202, job.to_dict(progress=False)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, body = request
            if not method:
                writer.write(_response(400, {"error": "malformed request line"}))
            else:
                status, payload = self._route(method, target, body)
                writer.write(_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled this handler; close the transport quietly
            # (re-raising here would surface through the stream protocol's
            # connection callback as spurious noise).
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    # -- lifecycle ---------------------------------------------------------------

    async def _serve(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._started.set()
        async with self._server:
            await self._server.serve_forever()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        except asyncio.CancelledError:
            pass
        except BaseException as error:  # noqa: BLE001 - surfaced to start()
            self._start_error = error
            self._started.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    def start(self, timeout: float = 10.0) -> "JobServer":
        """Bind and serve on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError(f"server failed to start within {timeout}s")
        if self._start_error is not None:
            raise RuntimeError("server failed to start") from self._start_error
        return self

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting connections and join the loop thread."""
        loop = self._loop
        if loop is None:
            return

        def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            for task in asyncio.all_tasks(loop):
                task.cancel()

        if self._thread is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(_shutdown)
            self._thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
