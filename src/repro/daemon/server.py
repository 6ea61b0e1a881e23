"""The verification daemon: a persistent asyncio HTTP/JSON server.

One :class:`VerifyDaemon` owns a :class:`~repro.daemon.workers.WorkerPool`
of warm worker *subprocesses* (one per concurrent worker), each holding a
:class:`~repro.service.session.VerifySession` for its whole lifetime —
interned terms, the SMT answer cache and the content-addressed
function-result cache all persist across the jobs each worker serves, so a
re-submitted (or merely re-edited) program verifies from cache instead of
from scratch.  Workers are never shared between concurrently running jobs;
a job that times out or crashes gets its worker **killed and replaced**
(subprocesses, unlike threads, can be killed), and crashed jobs are
retried on the replacement (see :mod:`repro.daemon.queue` and
``docs/robustness.md``).  The HTTP layer is a small hand-rolled HTTP/1.1
responder on ``asyncio`` streams (no third-party dependencies; one
connection per request, ``Connection: close``).

Endpoints (full reference with JSON schemas in ``docs/daemon.md``):

* ``POST /verify`` — submit a job, returns ``202`` with the job id;
* ``GET /jobs/<id>`` — job status plus the structured report when done;
  with ``?wait=S`` the answer is held until the job ends or ``S`` seconds
  pass (at most :data:`MAX_WAIT_SECONDS`);
* ``GET /metrics`` — Prometheus text exposition of the session registry
  plus daemon-level gauges (queue depth, running jobs, cache hit ratio);
* ``GET /healthz`` — liveness, uptime, queue/quota snapshot.

Start it with ``python -m repro serve`` or programmatically via
:func:`run_daemon`; stop it with SIGINT/SIGTERM — shutdown is graceful:
the daemon stops admitting, keeps answering status/metrics reads, drains
in-flight jobs (bounded by ``drain_timeout``) and only then exits.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import faults
from repro.obs import span as obs_span
from repro.obs.metrics import (
    REQUEST_LATENCY_BUCKETS,
    MetricsRegistry,
    to_prometheus,
)
from repro.daemon.protocol import (
    JobRecord,
    JobRequest,
    ProtocolError,
    error_payload,
)
from repro.daemon.queue import JobQueue, QueueFull
from repro.daemon.quotas import QuotaExceeded, TenantQuotas
from repro.daemon.workers import WorkerPool

__all__ = ["DaemonConfig", "VerifyDaemon", "run_daemon"]

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on request bodies (sources are text; 8 MiB is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_LINES = 100
#: Longest a ``GET /jobs/<id>?wait=S`` is held: a client that wants to wait
#: longer asks again.
MAX_WAIT_SECONDS = 30.0


@dataclass
class DaemonConfig:
    """Operator-tunable daemon knobs (see ``docs/daemon.md``)."""

    host: str = "127.0.0.1"
    port: int = 7341
    #: Concurrent verification jobs (asyncio workers over a thread pool).
    workers: int = 1
    #: Bound on *waiting* jobs; submissions beyond it get HTTP 503.
    queue_limit: int = 64
    #: Active-job quota per tenant (0 = unlimited); HTTP 429 beyond it.
    tenant_quota: int = 8
    #: Per-tenant overrides of ``tenant_quota``.
    tenant_limits: Dict[str, int] = field(default_factory=dict)
    #: Per-job wall-clock budget in seconds (None = unbounded).
    job_timeout: Optional[float] = 120.0
    #: Crash retries per job before it fails with ``WORKER_CRASHED``.
    job_retries: int = faults.CRASH_RETRIES
    #: Graceful-shutdown drain budget in seconds.
    drain_timeout: Optional[float] = 60.0
    #: Persist the function-result cache under this directory.
    cache_dir: Optional[str] = None
    #: ``VerifySession(jobs=...)`` — the per-job scheduler's worker count.
    session_jobs: int = 1
    #: Per-function wall-clock deadline inside each job (None = unbounded).
    fn_deadline: Optional[float] = None
    #: Worker address-space ceiling in MiB (None = unbounded).
    memory_limit_mb: Optional[int] = None
    #: Finished-job records retained for ``GET /jobs/<id>``.
    retention: int = 512


class VerifyDaemon:
    """The daemon: warm worker pool + job queue + HTTP front end."""

    def __init__(self, config: Optional[DaemonConfig] = None) -> None:
        self.config = config or DaemonConfig()
        # Daemon-level metrics (HTTP traffic, queue gauges, job lifecycle)
        # live on the daemon's own registry; the workers' solver metrics
        # on the pool's.  The event loop alone mutates both.
        self.registry = MetricsRegistry()
        self.workers = WorkerPool(
            {
                "cache_dir": self.config.cache_dir,
                "session_jobs": self.config.session_jobs,
                "fn_deadline": self.config.fn_deadline,
                "memory_limit_mb": self.config.memory_limit_mb,
            },
            size=max(1, self.config.workers),
        )
        self.queue = JobQueue(
            self.workers,
            registry=self.registry,
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            quotas=TenantQuotas(
                default_limit=self.config.tenant_quota,
                limits=self.config.tenant_limits,
            ),
            job_timeout=self.config.job_timeout,
            job_retries=self.config.job_retries,
            retention=self.config.retention,
        )
        self.started_at = time.time()
        self.state = "starting"  # -> serving -> draining -> stopped
        self.port: Optional[int] = None  # actual bound port (config may say 0)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_requested: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------------

    async def serve(self, ready: Optional[threading.Event] = None) -> None:
        """Bind, serve until shutdown is requested, then drain and exit."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        self.queue.start()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        self.state = "serving"
        # "session" is one warm worker; the name keeps operator dashboards
        # working.
        self.registry.gauge(
            "daemon.sessions.warm", help="live warm verification workers"
        ).set(self.workers.warm)
        if ready is not None:
            ready.set()
        try:
            await self._shutdown_requested.wait()
            # Graceful shutdown: refuse new work but keep serving reads
            # (job polls, metric scrapes) while in-flight jobs finish.
            self.state = "draining"
            self.queue.stop_accepting()
            drained = await self.queue.drain(self.config.drain_timeout)
            if not drained:
                self.registry.counter(
                    "daemon.drain_timeouts",
                    help="graceful shutdowns that abandoned in-flight jobs",
                ).inc()
        finally:
            self.state = "stopped"
            await self.queue.stop()
            server.close()
            await server.wait_closed()

    def run(self, ready: Optional[threading.Event] = None) -> None:
        """Blocking entry point (used by ``python -m repro serve``)."""
        asyncio.run(self.serve(ready=ready))

    def request_shutdown(self) -> None:
        """Thread-safe graceful-shutdown trigger."""
        if self._loop is not None and self._shutdown_requested is not None:
            self._loop.call_soon_threadsafe(self._shutdown_requested.set)

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None and self._shutdown_requested is not None
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(
                    signum, self._shutdown_requested.set
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread (tests) or unsupported platform: the
                # owner triggers request_shutdown() directly instead.
                return

    # -- HTTP plumbing -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        held = 0.0  # seconds a held job read waited, not timed as handling
        status = 500
        method = path = "?"
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return  # client closed before sending a request line
            method, path, headers, body = parsed
            hold = self._held_read(method, path)
            if hold is not None:
                holding = time.perf_counter()
                await self.queue.wait_ended(*hold)
                held = time.perf_counter() - holding
            status, content_type, payload = self._route(method, path, headers, body)
        except _HttpError as error:
            status, content_type, payload = (
                error.status,
                "application/json",
                json.dumps(error.payload).encode("utf-8"),
            )
        except Exception as exc:  # noqa: BLE001 — never hang a connection
            status, content_type, payload = (
                500,
                "application/json",
                json.dumps(
                    error_payload("INTERNAL", f"{type(exc).__name__}: {exc}")
                ).encode("utf-8"),
            )
        try:
            writer.write(self._response_bytes(status, content_type, payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            registry = self.registry
            registry.counter(
                "daemon.http.requests", help="HTTP requests handled"
            ).inc()
            if status >= 400:
                registry.counter(
                    "daemon.http.errors", help="HTTP requests answered >= 400"
                ).inc()
            registry.histogram(
                "daemon.request_seconds",
                REQUEST_LATENCY_BUCKETS,
                help="HTTP request handling latency",
                unit="seconds",
            ).observe(time.perf_counter() - started - held)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line.strip():
            return None
        try:
            method, path, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _HttpError(400, error_payload("BAD_REQUEST", "malformed request line"))
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, error_payload("BAD_REQUEST", "too many headers"))
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                raise _HttpError(
                    400, error_payload("BAD_REQUEST", "bad Content-Length")
                )
            if size > MAX_BODY_BYTES:
                raise _HttpError(
                    413,
                    error_payload(
                        "PAYLOAD_TOO_LARGE",
                        f"request body {size} exceeds {MAX_BODY_BYTES} bytes",
                    ),
                )
            body = await reader.readexactly(size)
        return method.upper(), path, headers, body

    @staticmethod
    def _response_bytes(status: int, content_type: str, payload: bytes) -> bytes:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + payload

    # -- routing -----------------------------------------------------------------

    def _held_read(self, method: str, path: str) -> Optional[Tuple[JobRecord, float]]:
        """The job a ``GET /jobs/<id>?wait=S`` waits for and the seconds it
        may wait, or ``None`` when the request is answered at once (no
        ``wait``, ``wait=0``, an unknown id or a job that has ended)."""
        path, _, query = path.partition("?")
        if method != "GET" or not path.startswith("/jobs/"):
            return None
        values = urllib.parse.parse_qs(query, keep_blank_values=True).get("wait")
        if values is None:
            return None
        try:
            seconds = float(values[-1])
        except ValueError:
            seconds = math.nan
        if not (math.isfinite(seconds) and seconds >= 0):
            raise _HttpError(
                400,
                error_payload(
                    "BAD_REQUEST",
                    f"'wait' must be a finite number of seconds >= 0, not {values[-1]!r}",
                ),
            )
        record = self.queue.get(path[len("/jobs/"):])
        if record is None or not record.active or not seconds:
            return None
        return record, min(seconds, MAX_WAIT_SECONDS)

    def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, str, bytes]:
        path = path.split("?", 1)[0]
        with obs_span("daemon.request", method=method, path=path):
            if path == "/verify":
                if method != "POST":
                    raise _HttpError(
                        405, error_payload("BAD_REQUEST", "POST /verify")
                    )
                return self._handle_verify(headers, body)
            if path.startswith("/jobs/"):
                if method != "GET":
                    raise _HttpError(
                        405, error_payload("BAD_REQUEST", "GET /jobs/<id>")
                    )
                return self._handle_job(path[len("/jobs/"):])
            if path == "/metrics":
                if method != "GET":
                    raise _HttpError(405, error_payload("BAD_REQUEST", "GET /metrics"))
                return self._handle_metrics()
            if path == "/healthz":
                if method != "GET":
                    raise _HttpError(405, error_payload("BAD_REQUEST", "GET /healthz"))
                return self._handle_healthz()
            raise _HttpError(
                404, error_payload("NOT_FOUND", f"no such endpoint: {path}")
            )

    def _handle_verify(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, str, bytes]:
        if self.state != "serving" or not self.queue.accepting:
            raise _HttpError(
                503, error_payload("SHUTTING_DOWN", "daemon is draining; retry elsewhere")
            )
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(
                400, error_payload("BAD_REQUEST", f"invalid JSON body: {error}")
            )
        if isinstance(payload, dict) and "tenant" not in payload:
            header_tenant = headers.get("x-tenant")
            if header_tenant:
                payload = {**payload, "tenant": header_tenant}
        try:
            request = JobRequest.from_dict(payload)
        except ProtocolError as error:
            raise _HttpError(400, error_payload("BAD_REQUEST", str(error)))
        try:
            record, deduped = self.queue.submit(request)
        except QueueFull as error:
            raise _HttpError(
                503,
                error_payload(
                    "QUEUE_FULL", str(error), queue_limit=self.queue.queue_limit
                ),
            )
        except QuotaExceeded as error:
            raise _HttpError(
                429,
                error_payload(
                    "QUOTA_EXCEEDED",
                    str(error),
                    tenant=error.tenant,
                    limit=error.limit,
                    active=error.active,
                ),
            )
        except RuntimeError as error:
            raise _HttpError(503, error_payload("SHUTTING_DOWN", str(error)))
        response = {
            "job_id": record.id,
            "state": record.state,
            "deduplicated": deduped,
            "url": f"/jobs/{record.id}",
        }
        return 202, "application/json", json.dumps(response).encode("utf-8")

    def _handle_job(self, job_id: str) -> Tuple[int, str, bytes]:
        record = self.queue.get(job_id)
        if record is None:
            raise _HttpError(
                404, error_payload("NOT_FOUND", f"no such job: {job_id}", job=job_id)
            )
        return 200, "application/json", record.to_json().encode("utf-8")

    def _cache_counts(self) -> Tuple[int, int]:
        workers = self.workers.metrics
        return workers.value("cache.hits"), workers.value("cache.misses")

    def _handle_metrics(self) -> Tuple[int, str, bytes]:
        # One merged exposition: the daemon registry (HTTP/queue series)
        # plus the workers' job deltas, with the deterministic merge
        # semantics (counters add, gauges max).
        merged = MetricsRegistry()
        merged.merge(self.registry.snapshot())
        merged.merge(self.workers.merged_metrics())
        # Scrape-time gauges overwrite whatever merging carried over, so
        # the exposition reflects *now*.
        merged.gauge(
            "daemon.queue.depth", help="jobs waiting in the queue"
        ).set(self.queue.depth)
        merged.gauge(
            "daemon.jobs.running", help="jobs currently verifying"
        ).set(self.queue.running)
        merged.gauge(
            "daemon.sessions.warm", help="live warm verification workers"
        ).set(self.workers.warm)
        hits, misses = self._cache_counts()
        merged.gauge(
            "daemon.cache.hit_ratio",
            help="function-result cache hit ratio over the daemon lifetime",
        ).set(round(hits / (hits + misses), 6) if hits + misses else 0)
        merged.gauge(
            "daemon.uptime_seconds", help="seconds since daemon start", unit="seconds"
        ).set(round(time.time() - self.started_at, 3))
        text = to_prometheus(merged.snapshot())
        return 200, "text/plain; version=0.0.4", text.encode("utf-8")

    def _handle_healthz(self) -> Tuple[int, str, bytes]:
        hits, misses = self._cache_counts()
        payload = {
            "ok": self.state in ("serving", "draining"),
            "state": self.state,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue": {
                "depth": self.queue.depth,
                "running": self.queue.running,
                "limit": self.queue.queue_limit,
                "workers": self.queue.workers,
            },
            "workers": {
                "warm": self.workers.warm,
                "retired": self.registry.value("daemon.sessions.retired"),
            },
            "tenants": self.queue.quotas.snapshot(),
            "cache": {"hits": hits, "misses": misses, "entries": self.workers.cache_entries},
        }
        return 200, "application/json", json.dumps(payload).encode("utf-8")


class _HttpError(Exception):
    """Internal: an HTTP status plus a structured JSON error body."""

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__(payload.get("error", {}).get("message", ""))
        self.status = status
        self.payload = payload


def run_daemon(config: Optional[DaemonConfig] = None) -> None:
    """Start a daemon and serve until SIGINT/SIGTERM (blocking)."""
    VerifyDaemon(config).run()
