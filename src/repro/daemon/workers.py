"""Killable verification workers: one warm session per daemon worker process.

The daemon used to run jobs on executor *threads* around a pool of warm
sessions — but Python threads cannot be killed, so a timed-out job left an
unkillable orphan thread mutating a retired session, and enough of them
exhausted the executor.  A :class:`WorkerPool` replaces that with real
subprocesses: each is a :class:`repro.faults.Worker` (the same forked
worker the ``--jobs`` scheduler runs on) that builds one warm
:class:`~repro.service.session.VerifySession` and serves jobs over its pipe
for its whole lifetime (keeping the interned terms, SMT answer cache and
function-result cache hot, exactly like the old session pool).  A job that
times out or a child that dies is handled by **killing the worker** —
SIGTERM, bounded grace, SIGKILL — and minting a fresh one; nothing orphaned
survives, and the queue can *retry* a crashed job on the replacement.

Metrics: each reply carries the child session's cumulative registry
snapshot; the pool keeps the latest snapshot per live worker and *absorbs*
a killed worker's last snapshot into a retained registry, so the merged
``/metrics`` exposition stays monotone across worker generations (counters
add across workers; within a worker the latest cumulative snapshot simply
replaces the previous one).
"""

from __future__ import annotations

import json
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.obs.metrics import MetricsRegistry

__all__ = ["WorkerPool"]

_NO_CACHE = {"hits": 0, "misses": 0, "entries": 0}

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
            trace=bool(config.get("trace", False)),
            fn_deadline=config.get("fn_deadline"),
            memory_limit_mb=config.get("memory_limit_mb"),
        )

        def serve(request_dict: Dict) -> Dict:
            try:
                faults.inject("daemon.job", key=str(request_dict.get("name", "")))
                only = request_dict.get("only")
                job = VerifyJob(
                    source=str(request_dict["source"]),
                    name=str(request_dict.get("name", "job")),
                    extra_sources=tuple(request_dict.get("extra_sources", ())),
                    only=tuple(only) if only is not None else None,
                )
                report = json.dumps(verify_job(job, session).to_dict())
                return {
                    "status": "ok",
                    # Encoded once, here: the daemon keeps these bytes and
                    # decompresses them to serve the report.
                    "report_zlib": zlib.compress(report.encode("utf-8"), REPORT_LEVEL),
                    "metrics": session.metrics_snapshot(),
                    "cache": {
                        "hits": session.cache.hits,
                        "misses": session.cache.misses,
                        "entries": len(session.cache),
                    },
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

        return serve

    return factory


class WorkerPool:
    """A fixed-size pool of warm worker subprocesses.

    ``acquire``/``release``/``retire`` follow the queue's event-loop-thread
    discipline (no internal locking); only :meth:`run_job` blocks, and the
    queue calls it from executor threads.
    """

    def __init__(self, config: Dict[str, object], size: int = 1) -> None:
        self.config = dict(config)
        self.size = max(0, int(size))
        self.retired_total = 0
        self._idle: List[faults.Worker] = []
        self._busy: List[faults.Worker] = []
        #: Latest cumulative (metrics, cache) snapshot each live worker
        #: reported.  Keys change only on the event-loop thread; executor
        #: threads only replace the value of the worker they drive.
        self._latest: Dict[faults.Worker, Tuple[Dict[str, object], Dict[str, int]]] = {}
        self._spawned = 0
        self._started = False
        self._absorbed = MetricsRegistry()
        self._absorbed_cache = {"hits": 0, "misses": 0}

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
        worker = faults.Worker(
            _session_server(self.config),
            name=f"repro-daemon-worker-{self._spawned}",
            memory_limit_mb=self.config.get("memory_limit_mb"),
        )
        self._latest[worker] = ({}, dict(_NO_CACHE))
        return worker

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
        if reply.get("status") == "ok":
            self._latest[worker] = (reply.get("metrics", {}), reply.get("cache", _NO_CACHE))
        return reply

    def retire(self, worker: faults.Worker) -> None:
        """Kill a timed-out/crashed worker and mint a fresh replacement."""
        self._busy.remove(worker)
        self._absorb(worker)
        worker.kill()
        self.retired_total += 1
        if self._started:
            self._idle.append(self._spawn())

    def _absorb(self, worker: faults.Worker) -> None:
        metrics, cache = self._latest.pop(worker)
        if metrics:
            self._absorbed.merge(metrics)
        # Entries die with the worker's in-memory map; hits/misses are
        # lifetime totals worth keeping.
        self._absorbed_cache["hits"] += int(cache.get("hits", 0))
        self._absorbed_cache["misses"] += int(cache.get("misses", 0))

    def merged_metrics(self) -> Dict[str, object]:
        """Absorbed retirees plus the latest snapshot of every live worker."""
        merged = MetricsRegistry()
        merged.merge(self._absorbed.snapshot())
        for metrics, _cache in list(self._latest.values()):
            if metrics:
                merged.merge(metrics)
        return merged.snapshot()

    def cache_stats(self) -> Dict[str, int]:
        stats = {
            "hits": self._absorbed_cache["hits"],
            "misses": self._absorbed_cache["misses"],
            "entries": 0,
        }
        for _metrics, cache in list(self._latest.values()):
            stats["hits"] += int(cache.get("hits", 0))
            stats["misses"] += int(cache.get("misses", 0))
            stats["entries"] += int(cache.get("entries", 0))
        return stats

    def stop(self) -> None:
        for worker in (*self._idle, *self._busy):
            self._absorb(worker)
            worker.stop()
        self._idle.clear()
        self._busy.clear()
        self._started = False
