"""Blocking HTTP client for the verification daemon.

The CLI's ``--server`` mode and the smoke tests speak to the daemon
through these helpers; they use only the standard library
(:mod:`urllib.request`) and raise typed errors:

* :class:`DaemonUnavailable` — nothing is listening (connection refused,
  DNS failure).  ``python -m repro --server URL`` catches exactly this to
  fall back to in-process verification.
* :class:`DaemonError` — the daemon answered with a structured error
  payload (quota exceeded, queue full, bad request, ...); ``kind`` and
  ``status`` carry the machine-readable identity.  A *socket timeout* is
  a ``DaemonError`` with kind ``TIMEOUT``, not unavailability: a slow
  scrape or status poll means the daemon is busy, not absent — the job
  may well still be running server-side, so falling back to in-process
  verification would duplicate work.  Retry instead.

Runnable example — start a private daemon, submit, and wait:

>>> from repro.daemon import client
>>> from repro.daemon.testing import run_daemon
>>> SOURCE = '''
... #[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
... fn inc(x: i32) -> i32 { x + 1 }
... '''
>>> with run_daemon() as daemon:
...     job_id = client.submit(daemon.url, SOURCE, name="quickstart")
...     record = client.wait(daemon.url, job_id)
...     resubmitted = client.submit(daemon.url, SOURCE, name="quickstart")
>>> record["state"]
'done'
>>> record["report"]["ok"]
True
>>> [fn["status"] for fn in record["report"]["functions"]]
['ok']
>>> resubmitted == job_id  # identical content deduplicates to the same job
True
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Sequence

__all__ = [
    "DaemonError",
    "DaemonUnavailable",
    "healthz",
    "is_alive",
    "metrics",
    "status",
    "submit",
    "verify",
    "wait",
]


class DaemonError(Exception):
    """The daemon answered with a structured error payload."""

    def __init__(
        self,
        kind: str,
        message: str,
        http_status: Optional[int] = None,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.http_status = http_status
        self.detail = detail or {}


class DaemonUnavailable(DaemonError):
    """No daemon is listening at the given URL (triggers CLI fallback)."""

    def __init__(self, url: str, reason: str) -> None:
        super().__init__("UNAVAILABLE", f"no daemon at {url}: {reason}")
        self.url = url


def _request(
    server: str,
    path: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 10.0,
) -> object:
    """One HTTP exchange; JSON responses are decoded, text returned as str."""
    url = server.rstrip("/") + path
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        method="POST" if payload is not None else "GET",
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read().decode("utf-8")
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        raw = error.read().decode("utf-8", errors="replace")
        try:
            inner = json.loads(raw)["error"]
            raise DaemonError(
                str(inner.get("kind", "INTERNAL")),
                str(inner.get("message", raw)),
                http_status=error.code,
                detail=inner.get("detail"),
            ) from None
        except (json.JSONDecodeError, KeyError, TypeError):
            raise DaemonError("INTERNAL", raw or str(error), http_status=error.code) from None
    except urllib.error.URLError as error:
        reason = getattr(error, "reason", error)
        if isinstance(reason, (TimeoutError, socket.timeout)):
            raise DaemonError(
                "TIMEOUT", f"no response from {url} within {timeout}s"
            ) from None
        raise DaemonUnavailable(server, str(reason)) from None
    except (TimeoutError, socket.timeout):
        # The connection succeeded but the response is slow: the daemon is
        # alive (and possibly still working on our job) — retryable, not
        # grounds for the in-process fallback.
        raise DaemonError(
            "TIMEOUT", f"no response from {url} within {timeout}s"
        ) from None
    except (ConnectionError, OSError) as error:
        raise DaemonUnavailable(server, str(error)) from None
    if content_type.startswith("application/json"):
        return json.loads(body)
    return body


def submit(
    server: str,
    source: str,
    name: str = "job",
    extra_sources: Sequence[str] = (),
    only: Optional[Sequence[str]] = None,
    tenant: Optional[str] = None,
    timeout: float = 10.0,
) -> str:
    """``POST /verify``: submit a program, return the job id.

    Identical submissions (same sources, target set, name, tenant)
    deduplicate server-side and return the original job id.
    """
    payload: Dict[str, object] = {"source": source, "name": name}
    if extra_sources:
        payload["extra_sources"] = list(extra_sources)
    if only is not None:
        payload["only"] = list(only)
    if tenant is not None:
        payload["tenant"] = tenant
    response = _request(server, "/verify", payload=payload, timeout=timeout)
    return str(response["job_id"])


def status(
    server: str, job_id: str, timeout: float = 10.0, wait: Optional[float] = None
) -> Dict[str, object]:
    """``GET /jobs/<id>``: the job record (state, timings, report when done).

    With ``wait`` (seconds), ``GET /jobs/<id>?wait=S``: the daemon holds
    the answer until the job is ``done`` or ``failed`` or ``wait`` seconds
    pass (it holds a read 30 s at most), and ``timeout`` is the socket
    timeout on top of the wait.
    """
    if wait is None:
        return _request(server, f"/jobs/{job_id}", timeout=timeout)  # type: ignore[return-value]
    return _request(  # type: ignore[return-value]
        server, f"/jobs/{job_id}?wait={wait:.3f}", timeout=timeout + wait
    )


def wait(
    server: str,
    job_id: str,
    timeout: float = 120.0,
    poll_interval: float = 0.05,
) -> Dict[str, object]:
    """Wait until the job reaches a terminal state; return its record.

    Each round is one held read (:func:`status` with ``wait``) that asks
    for the time left before the deadline, so the daemon answers as soon
    as the job ends.  A round that comes back with the job still active
    (the daemon's cap on a held read passed, or a daemon that answers at
    once) is followed by another; ``poll_interval`` is the least time
    between the starts of two rounds.

    Returns the final record (``state`` is ``"done"`` or ``"failed"``);
    raises :class:`DaemonError` with kind ``TIMEOUT`` when the deadline
    passes first.
    """
    deadline = time.monotonic() + timeout
    while True:
        started = time.monotonic()
        record = status(server, job_id, wait=max(0.0, deadline - started))
        if record.get("state") in ("done", "failed"):
            return record
        now = time.monotonic()
        if now >= deadline:
            raise DaemonError(
                "TIMEOUT", f"job {job_id} still {record.get('state')} after {timeout}s"
            )
        time.sleep(max(0.0, min(started + poll_interval, deadline) - now))


def verify(
    server: str,
    source: str,
    name: str = "job",
    extra_sources: Sequence[str] = (),
    only: Optional[Sequence[str]] = None,
    tenant: Optional[str] = None,
    timeout: float = 120.0,
    poll_interval: float = 0.05,
) -> Dict[str, object]:
    """Submit and :func:`wait`; returns the terminal job record."""
    job_id = submit(
        server,
        source,
        name=name,
        extra_sources=extra_sources,
        only=only,
        tenant=tenant,
    )
    return wait(server, job_id, timeout=timeout, poll_interval=poll_interval)


def healthz(server: str, timeout: float = 5.0) -> Dict[str, object]:
    """``GET /healthz``: liveness and queue/quota/cache snapshot."""
    return _request(server, "/healthz", timeout=timeout)  # type: ignore[return-value]


def metrics(server: str, timeout: float = 5.0) -> str:
    """``GET /metrics``: the Prometheus text exposition."""
    return _request(server, "/metrics", timeout=timeout)  # type: ignore[return-value]


def is_alive(server: str, timeout: float = 2.0) -> bool:
    """True iff a daemon answers ``/healthz`` at ``server``."""
    try:
        return bool(healthz(server, timeout=timeout).get("ok"))
    except DaemonError:
        return False
