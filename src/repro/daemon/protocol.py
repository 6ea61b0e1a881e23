"""Wire protocol of the verification daemon: requests, job records, errors.

Everything that crosses the HTTP boundary is defined here as a dataclass
with an explicit JSON shape, so the server (:mod:`repro.daemon.server`),
the client (:mod:`repro.daemon.client`) and the tests agree on one
contract.  See ``docs/daemon.md`` for the rendered endpoint reference.

Error responses follow the structured style PR 5 introduced for
``SOLVER_UNKNOWN`` fixpoint errors: a machine-readable upper-case ``kind``
plus a human-readable ``message`` (never a bare string, never a hung
connection)::

    {"error": {"kind": "QUOTA_EXCEEDED", "message": "...", "detail": {...}}}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.service.cache import SCHEMA_VERSION

#: Job lifecycle states.  ``done`` means verification ran to completion
#: (the report's ``ok`` says whether it *verified*); ``failed`` means the
#: daemon could not produce a report (timeout, internal error) and the
#: record carries a structured ``error`` payload instead.
JOB_STATES = ("queued", "running", "done", "failed")

#: Error kinds the daemon emits (the ``error.kind`` field).
ERROR_KINDS = (
    "BAD_REQUEST",
    "NOT_FOUND",
    "PAYLOAD_TOO_LARGE",
    "QUEUE_FULL",
    "QUOTA_EXCEEDED",
    "SHUTTING_DOWN",
    "TIMEOUT",
    "WORKER_CRASHED",
    "INTERNAL",
)

#: Tenant used when a request names none (no ``tenant`` field, no
#: ``X-Tenant`` header).
DEFAULT_TENANT = "default"


class ProtocolError(ValueError):
    """A request payload that does not match the protocol (HTTP 400)."""


def error_payload(kind: str, message: str, **detail: object) -> Dict[str, object]:
    """The structured error body: ``{"error": {"kind", "message", "detail"}}``."""
    assert kind in ERROR_KINDS, kind
    body: Dict[str, object] = {"kind": kind, "message": message}
    if detail:
        body["detail"] = detail
    return {"error": body}


@dataclass(frozen=True)
class JobRequest:
    """One ``POST /verify`` body: a program and what to check in it.

    Mirrors :class:`repro.service.api.VerifyJob` plus the daemon-only
    ``tenant`` (quota accounting key).
    """

    source: str
    name: str = "job"
    extra_sources: Tuple[str, ...] = ()
    only: Optional[Tuple[str, ...]] = None
    tenant: str = DEFAULT_TENANT

    @classmethod
    def from_dict(cls, payload: object) -> "JobRequest":
        """Validate a decoded JSON body; raises :class:`ProtocolError`."""
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(payload) - {"source", "name", "extra_sources", "only", "tenant"}
        if unknown:
            raise ProtocolError(f"unknown request fields: {', '.join(sorted(unknown))}")
        source = payload.get("source")
        if not isinstance(source, str) or not source:
            raise ProtocolError("'source' must be a non-empty string")
        name = payload.get("name", "job")
        if not isinstance(name, str) or not name:
            raise ProtocolError("'name' must be a non-empty string")
        extra = payload.get("extra_sources", [])
        if not isinstance(extra, list) or not all(isinstance(s, str) for s in extra):
            raise ProtocolError("'extra_sources' must be a list of strings")
        only = payload.get("only")
        if only is not None and (
            not isinstance(only, list) or not all(isinstance(s, str) for s in only)
        ):
            raise ProtocolError("'only' must be a list of strings (or omitted)")
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("'tenant' must be a non-empty string")
        return cls(
            source=source,
            name=name,
            extra_sources=tuple(extra),
            only=tuple(only) if only is not None else None,
            tenant=tenant,
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "source": self.source,
            "name": self.name,
            "tenant": self.tenant,
        }
        if self.extra_sources:
            payload["extra_sources"] = list(self.extra_sources)
        if self.only is not None:
            payload["only"] = list(self.only)
        return payload

    def content_key(self) -> str:
        """Content hash used for request deduplication.

        Two submissions with the same sources, target set, job name and
        tenant are *the same job*; resubmitting returns the original job
        id.  The verifier schema version (the same one that invalidates
        :mod:`repro.service.cache` entries) is folded in so a daemon
        restarted on new verifier code never aliases old job ids.
        """
        parts = [
            f"schema={SCHEMA_VERSION}",
            f"tenant={self.tenant}",
            f"name={self.name}",
            f"only={','.join(self.only) if self.only is not None else '*'}",
            *self.extra_sources,
            self.source,
        ]
        return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    """One job's full lifecycle, as served by ``GET /jobs/<id>``."""

    id: str
    request: JobRequest
    state: str = "queued"
    submitted: float = 0.0  # wall-clock (time.time) timestamps
    started: Optional[float] = None
    finished: Optional[float] = None
    #: ``JobReport.to_dict()`` as JSON text once the job is done: about a
    #: third of the memory of the decoded dict, and served undecoded.
    report_json: Optional[str] = None
    #: Structured error payload (``error_payload``'s inner dict) when failed.
    error: Optional[Dict[str, object]] = None
    #: How many duplicate submissions were folded into this record.
    duplicates: int = 0
    #: Index for debuggability: monotonically increasing per daemon.
    sequence: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.state in ("queued", "running")

    @property
    def report(self) -> Optional[Dict[str, object]]:
        """The finished job's report, decoded from :attr:`report_json`."""
        return None if self.report_json is None else json.loads(self.report_json)

    def to_dict(self, include_report: bool = True) -> Dict[str, object]:
        payload = self._status()
        if include_report and self.report_json is not None:
            payload["report"] = self.report
        if self.error is not None:
            payload["error"] = dict(self.error)
        return payload

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, with the report text spliced in undecoded."""
        text = json.dumps(self._status())[:-1]
        if self.report_json is not None:
            text += ', "report": ' + self.report_json
        if self.error is not None:
            text += ', "error": ' + json.dumps(self.error)
        return text + "}"

    def _status(self) -> Dict[str, object]:
        """Every ``to_dict`` key but ``report`` and ``error``, in order."""
        payload: Dict[str, object] = {
            "id": self.id,
            "name": self.request.name,
            "tenant": self.request.tenant,
            "state": self.state,
            "submitted": self.submitted,
            "duplicates": self.duplicates,
        }
        # Set once the job reaches a worker: the attempt it is on and the
        # pid of the worker that ran (or is running) that attempt.
        for key in ("attempts", "worker_pid"):
            if key in self.meta:
                payload[key] = self.meta[key]
        if self.started is not None:
            payload["started"] = self.started
        if self.finished is not None:
            payload["finished"] = self.finished
            if self.started is not None:
                payload["elapsed"] = round(self.finished - self.started, 6)
        return payload


def job_id_for(key: str, sequence: int) -> str:
    """Job ids are debuggable: a sequence number plus a content-key prefix."""
    return f"job-{sequence:06d}-{key[:12]}"
