"""Killable verification workers: one warm session per daemon worker process.

Jobs run in subprocesses rather than threads because a Python thread
cannot be killed: a timed-out job would leave an orphan thread mutating
its session.  Each worker of a :class:`WorkerPool` is a
:class:`repro.faults.Worker` (the same forked worker the ``--jobs``
scheduler runs on) that builds one warm
:class:`~repro.service.session.VerifySession` and serves jobs over its pipe
for its whole lifetime, keeping the interned terms, SMT answer cache and
function-result cache hot.  A job that times out or a child that dies is
handled by **killing the worker** — SIGTERM, bounded grace, SIGKILL — and
minting a fresh one; nothing orphaned survives, and the queue can *retry*
a crashed job on the replacement.

Metrics: each reply carries the registry delta of its job, taken from a
fresh registry per job (:meth:`repro.obs.ObsContext.take_metrics`, as a
``--jobs`` worker ships one per function).  The pool merges every delta
into one registry, :attr:`WorkerPool.metrics`, so a worker's retirement
loses only the job it was killed in, and the counters on ``/metrics``
stay monotone.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional

from repro import faults
from repro.obs.metrics import MetricsRegistry

__all__ = ["WorkerPool"]

#: zlib level of a finished report: level 1 keeps a crate report at about
#: a ninth of its text, in about a millisecond.
REPORT_LEVEL = 1


def _session_server(config: Dict[str, object]) -> Callable[[], Callable[[Dict], Dict]]:
    """The worker side: a warm session that answers one job per request."""

    def factory() -> Callable[[Dict], Dict]:
        from repro.service.api import VerifyJob, verify_job
        from repro.service.session import VerifySession

        session = VerifySession(
            cache_dir=config.get("cache_dir"),
            jobs=int(config.get("session_jobs", 1) or 1),
            fn_deadline=config.get("fn_deadline"),
            memory_limit_mb=config.get("memory_limit_mb"),
        )

        def run(request_dict: Dict) -> Dict:
            try:
                faults.inject("daemon.job", key=str(request_dict.get("name", "")))
                only = request_dict.get("only")
                job = VerifyJob(
                    source=str(request_dict["source"]),
                    name=str(request_dict.get("name", "job")),
                    extra_sources=tuple(request_dict.get("extra_sources", ())),
                    only=tuple(only) if only is not None else None,
                )
                report = verify_job(job, session).to_json()
                return {
                    "status": "ok",
                    # Encoded once, here: the daemon keeps these bytes and
                    # decompresses them to serve the report.
                    "report_zlib": zlib.compress(report.encode("utf-8"), REPORT_LEVEL),
                    "cache_entries": len(session.cache),
                }
            except MemoryError:
                return {
                    "status": "error",
                    "kind": "INTERNAL",
                    "message": "worker hit its memory ceiling while running the job",
                }
            except Exception as error:  # noqa: BLE001 — the reply carries the error
                return {
                    "status": "error",
                    "kind": "INTERNAL",
                    "message": f"{type(error).__name__}: {error}",
                }

        def serve(request_dict: Dict) -> Dict:
            reply = run(request_dict)
            reply["metrics"] = session.obs.take_metrics()
            return reply

        return serve

    return factory


class WorkerPool:
    """A fixed-size pool of warm worker subprocesses.

    ``acquire``/``release``/``retire``/``merge_reply`` follow the queue's
    event-loop-thread discipline (no internal locking); only
    :meth:`run_job` blocks, and the queue calls it from executor threads.
    """

    def __init__(self, config: Dict[str, object], size: int = 1) -> None:
        self.config = dict(config)
        self.size = max(0, int(size))
        #: Every job's metrics delta, merged: what all workers, retired
        #: ones included, counted.
        self.metrics = MetricsRegistry()
        self._idle: List[faults.Worker] = []
        self._busy: List[faults.Worker] = []
        #: Each live worker's result-cache size at its last reply.
        self._entries: Dict[faults.Worker, int] = {}
        self._spawned = 0
        self._started = False

    def start(self) -> None:
        """Fork the workers (idempotent); deferred so constructing a daemon
        object costs nothing until it actually serves."""
        if self._started:
            return
        self._started = True
        for _ in range(self.size):
            self._idle.append(self._spawn())

    def _spawn(self) -> faults.Worker:
        self._spawned += 1
        return faults.Worker(
            _session_server(self.config),
            name=f"repro-daemon-worker-{self._spawned}",
            memory_limit_mb=self.config.get("memory_limit_mb"),
        )

    @property
    def warm(self) -> int:
        return len(self._idle) + len(self._busy)

    def acquire(self) -> faults.Worker:
        if not self._idle:
            raise RuntimeError("worker pool exhausted: acquire without a free worker")
        worker = self._idle.pop()
        self._busy.append(worker)
        return worker

    def release(self, worker: faults.Worker) -> None:
        self._busy.remove(worker)
        self._idle.append(worker)

    def run_job(
        self,
        worker: faults.Worker,
        request_dict: Dict[str, object],
        timeout: Optional[float],
        attempt: int,
    ) -> Dict[str, object]:
        """Send one job to ``worker`` and wait for the reply; blocking, call off-loop.

        Returns the child's reply dict, or a synthetic ``timeout`` /
        ``crashed`` status when the child overran ``timeout`` or died
        mid-job; either way the caller must then :meth:`retire` the worker.
        """
        worker.send(request_dict, attempt)
        status, reply = worker.receive(timeout)
        if status == "timeout":
            return {"status": "timeout"}
        if status == "crashed":
            return {"status": "crashed", "message": f"worker pid {worker.pid} died mid-job"}
        if not isinstance(reply, dict):
            return {
                "status": "error",
                "kind": "INTERNAL",
                "message": f"malformed worker reply: {type(reply).__name__}",
            }
        return reply

    def merge_reply(self, worker: faults.Worker, reply: Dict[str, object]) -> None:
        """Fold a reply's metrics delta into :attr:`metrics` and note the
        worker's cache size."""
        self.metrics.merge(reply.get("metrics", {}))
        if "cache_entries" in reply:
            self._entries[worker] = int(reply["cache_entries"])

    def merged_metrics(self) -> Dict[str, object]:
        """What every worker counted, retired ones included: the snapshot
        of :attr:`metrics`."""
        return self.metrics.snapshot()

    @property
    def cache_entries(self) -> int:
        """The live workers' result-cache sizes, summed."""
        return sum(self._entries.values())

    def retire(self, worker: faults.Worker) -> None:
        """Kill a timed-out/crashed worker and mint a fresh replacement."""
        self._busy.remove(worker)
        self._entries.pop(worker, None)
        worker.kill()
        if self._started:
            self._idle.append(self._spawn())

    def stop(self) -> None:
        for worker in (*self._idle, *self._busy):
            worker.stop()
        self._idle.clear()
        self._busy.clear()
        self._entries.clear()
        self._started = False
