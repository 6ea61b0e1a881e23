"""Bounded job queue with deduplication, quotas, retries and graceful drain.

The queue owns the daemon's verification work: admitted jobs wait in FIFO
order, ``workers`` asyncio worker tasks pull them and dispatch each to a
warm worker *subprocess* from the daemon's
:class:`~repro.daemon.workers.WorkerPool` (the synchronous pipe round-trip
runs on a thread-pool executor so the event loop never blocks).  Workers
are never shared between concurrently running jobs, and everything that
makes a worker fast across requests — interned terms, the SMT answer
cache, the content-addressed function-result cache — stays alive in the
subprocess between the jobs it serves, which is the entire point of the
daemon.

Admission control happens at submit time, on the event-loop thread:

* **deduplication** — a submission whose content key (see
  :meth:`repro.daemon.protocol.JobRequest.content_key`) matches a retained
  *queued, running or done* job returns that job's record unchanged.  A
  matched **failed** record (timeout, crash, internal error) does *not*
  absorb the submission: the stale failure is unlinked and the job is
  re-admitted, so one transient failure never makes content unverifiable
  for the lifetime of the retention window;
* **queue bound** — more than ``queue_limit`` waiting jobs raises
  :class:`QueueFull` (HTTP 503);
* **quotas** — each tenant holds at most its quota of active jobs
  (:class:`repro.daemon.quotas.TenantQuotas`, HTTP 429).

Fault containment (see ``docs/robustness.md``): a job that outlives
``job_timeout`` is failed with a structured ``TIMEOUT`` payload and its
worker is **killed and replaced** — a subprocess, unlike a thread, cannot
linger as an unkillable orphan.  A worker that
*dies* mid-job (OOM killer, injected crash, segfault) has the job retried
with backoff on a fresh worker up to ``job_retries`` times (default
:data:`repro.faults.CRASH_RETRIES`, the rule the ``--jobs`` scheduler
applies to a function); when retries run out the job fails with a
structured ``WORKER_CRASHED`` payload.  ``GET /jobs/<id>`` reports the
attempt count and the pid of the worker that produced the outcome.
Timeouts are not retried: a deterministic over-budget job would just time
out again.

A reader may wait for a job to end (:meth:`JobQueue.wait_ended`, behind
``GET /jobs/<id>?wait=S``); it is woken when the job reaches ``done`` or
``failed``, so a job re-run after a crash wakes it only once, at its final
state.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Deque, Dict, Optional, Tuple

from repro import faults
from repro.obs.metrics import REQUEST_LATENCY_BUCKETS, MetricsRegistry

from repro.daemon.protocol import JobRecord, JobRequest, error_payload, job_id_for
from repro.daemon.quotas import QuotaExceeded, TenantQuotas
from repro.daemon.workers import WorkerPool

__all__ = ["JobQueue", "QueueFull", "QuotaExceeded"]


class QueueFull(Exception):
    """The backlog of waiting jobs is at its bound (HTTP 503)."""

    def __init__(self, limit: int) -> None:
        super().__init__(f"job queue is full ({limit} waiting jobs)")
        self.limit = limit


class JobQueue:
    """FIFO verification queue over a pool of warm worker subprocesses.

    Not thread-safe by itself: ``submit``/``get`` must run on the event-loop
    thread (the HTTP handlers do).  Verification runs in worker
    subprocesses; only the pipe round-trip occupies an executor thread.
    Daemon-level metrics go to ``registry`` — the daemon's own registry,
    distinct from the pool's registry of the workers' job deltas, which
    :meth:`_run` merges on the event-loop thread before a job ends.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        registry: Optional[MetricsRegistry] = None,
        workers: int = 1,
        queue_limit: int = 64,
        quotas: Optional[TenantQuotas] = None,
        job_timeout: Optional[float] = None,
        job_retries: int = faults.CRASH_RETRIES,
        retention: int = 512,
    ) -> None:
        self.pool = pool
        self.registry = registry if registry is not None else MetricsRegistry()
        self.workers = max(0, int(workers))
        self.queue_limit = max(1, int(queue_limit))
        self.quotas = quotas or TenantQuotas()
        self.job_timeout = job_timeout
        self.job_retries = max(0, int(job_retries))
        self.retention = max(1, int(retention))
        self._pending: Deque[JobRecord] = deque()
        self._records: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._by_key: Dict[str, str] = {}
        self._sequence = 0
        self._running = 0
        self._accepting = True
        self._stopping = False
        self._wakeup: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        #: Job id -> the event its waiters wait on, set when the job ends.
        self._ended: Dict[str, asyncio.Event] = {}
        self._tasks: list = []
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- metrics helpers ---------------------------------------------------------

    def _counter(self, name: str, help: str):
        return self.registry.counter(name, help=help)

    def _update_gauges(self) -> None:
        self.registry.gauge(
            "daemon.queue.depth", help="jobs waiting in the queue"
        ).set(len(self._pending))
        self.registry.gauge(
            "daemon.jobs.running", help="jobs currently verifying"
        ).set(self._running)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Fork the worker pool and spawn the worker tasks (call from the loop)."""
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.pool.start()
        # One executor thread per worker: each does nothing but block on a
        # worker pipe, so no slack beyond ``workers`` is ever needed.
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.workers),
            thread_name_prefix="repro-daemon",
        )
        self._tasks = [
            asyncio.get_running_loop().create_task(self._worker_loop())
            for _ in range(self.workers)
        ]

    async def stop(self) -> None:
        """Stop the workers, failing the queued backlog with ``SHUTTING_DOWN``.

        Call :meth:`drain` first for a graceful shutdown; ``stop`` is the
        hard phase — every still-*queued* job is failed immediately (its
        quota slot released), each worker task exits as soon as its current
        job completes or times out, and the subprocess pool is torn down
        (graceful stop message, then SIGTERM/SIGKILL escalation), so
        shutdown is bounded by one ``job_timeout`` and leaves no orphaned
        process behind.
        """
        self._stopping = True
        self._accepting = False
        abandoned = 0
        while self._pending:
            record = self._pending.popleft()
            record.state = "failed"
            record.error = error_payload(
                "SHUTTING_DOWN",
                "daemon shut down before the job ran",
                job=record.id,
            )["error"]
            self._end(record)
            abandoned += 1
        if abandoned:
            self._counter(
                "daemon.jobs.abandoned",
                "queued jobs failed because the daemon shut down",
            ).inc(abandoned)
        self._update_gauges()
        if self._idle is not None and self.active == 0:
            self._idle.set()
        if self._wakeup is not None:
            self._wakeup.set()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        self.pool.stop()

    def stop_accepting(self) -> None:
        self._accepting = False

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def depth(self) -> int:
        return len(self._pending)

    @property
    def running(self) -> int:
        return self._running

    @property
    def active(self) -> int:
        return len(self._pending) + self._running

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait until every admitted job finished.

        Returns ``True`` when the queue drained, ``False`` on timeout (the
        remaining jobs keep running; the caller decides what to report).
        """
        self._accepting = False
        if self._idle is None:
            return True
        if self.active == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # -- admission ---------------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        return self._records.get(job_id)

    async def wait_ended(self, record: JobRecord, timeout: float) -> None:
        """Return once ``record`` is ``done`` or ``failed``, or after
        ``timeout`` seconds, whichever comes first (call from the loop)."""
        if not record.active:
            return
        ended = self._ended.get(record.id)
        if ended is None:
            ended = self._ended[record.id] = asyncio.Event()
        try:
            await asyncio.wait_for(ended.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def submit(self, request: JobRequest) -> Tuple[JobRecord, bool]:
        """Admit a request; returns ``(record, deduplicated)``.

        Raises :class:`QueueFull`, :class:`QuotaExceeded`, or
        :class:`RuntimeError` when the queue no longer accepts work.
        """
        key = request.content_key()
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            record = self._records.get(existing_id)
            if record is not None and record.state != "failed":
                record.duplicates += 1
                self._counter(
                    "daemon.jobs.deduped",
                    "submissions folded into an existing job",
                ).inc()
                return record, True
            # A failed record must not absorb resubmissions forever (one
            # transient timeout would pin the verdict until eviction):
            # unlink it and admit this submission as a fresh job.  The old
            # record stays readable under its id until evicted.
            self._by_key.pop(key, None)
            if record is not None:
                self._counter(
                    "daemon.jobs.retried",
                    "failed jobs re-admitted on resubmission",
                ).inc()
        if not self._accepting:
            raise RuntimeError("daemon is shutting down")
        if len(self._pending) >= self.queue_limit:
            self._counter(
                "daemon.jobs.queue_rejections", "submissions rejected: queue full"
            ).inc()
            raise QueueFull(self.queue_limit)
        try:
            self.quotas.acquire(request.tenant)
        except QuotaExceeded:
            self._counter(
                "daemon.jobs.quota_rejections", "submissions rejected: tenant quota"
            ).inc()
            raise
        self._sequence += 1
        record = JobRecord(
            id=job_id_for(key, self._sequence),
            request=request,
            state="queued",
            submitted=time.time(),
            sequence=self._sequence,
        )
        record.meta["key"] = key
        self._records[record.id] = record
        self._by_key[key] = record.id
        self._pending.append(record)
        self._counter("daemon.jobs.submitted", "jobs admitted to the queue").inc()
        if self._idle is not None:
            self._idle.clear()
        if self._wakeup is not None:
            self._wakeup.set()
        self._update_gauges()
        self._evict()
        return record, False

    def _evict(self) -> None:
        """Drop the oldest *finished* records beyond the retention window."""
        excess = len(self._records) - self.retention
        if excess <= 0:
            return
        for job_id in [jid for jid, rec in self._records.items() if not rec.active]:
            if excess <= 0:
                break
            record = self._records.pop(job_id)
            key = record.meta.get("key", "")
            # A re-admitted job may own this key by now; only unlink our own.
            if self._by_key.get(key) == job_id:
                self._by_key.pop(key, None)
            excess -= 1

    # -- execution ---------------------------------------------------------------

    def _dispatch(
        self, record: JobRecord, worker: faults.Worker, attempt: int
    ) -> Dict[str, object]:
        """Runs on an executor thread: one pipe round-trip to the worker."""
        try:
            # Chaos site on the dispatch path itself; a "crash" here cannot
            # kill the daemon (this process is not a disposable worker), it
            # surfaces as InjectedCrash and exercises the retry path.
            faults.inject("daemon.queue", key=record.request.name)
        except faults.InjectedCrash as error:
            return {"status": "crashed", "message": str(error)}
        except MemoryError as error:
            return {"status": "error", "kind": "INTERNAL", "message": str(error)}
        return self.pool.run_job(worker, record.request.to_dict(), self.job_timeout, attempt)

    async def _worker_loop(self) -> None:
        assert self._wakeup is not None
        while not self._stopping:
            if self._pending:
                record = self._pending.popleft()
                await self._run(record)
                continue
            self._wakeup.clear()
            if self._stopping:
                return
            await self._wakeup.wait()

    def _fail(self, record: JobRecord, kind: str, message: str, counter: str, help: str) -> None:
        record.state = "failed"
        record.error = error_payload(kind, message, job=record.id)["error"]
        self._counter(counter, help).inc()

    def _end(self, record: JobRecord) -> None:
        """Close a record that reached ``done`` or ``failed`` and wake its
        waiters.

        From here on only its name, tenant and ``meta["key"]`` are read, so
        the sources go: kept, they would live for the record's retention.
        """
        record.finished = time.time()
        self.quotas.release(record.request.tenant)
        record.request = replace(record.request, source="", extra_sources=())
        ended = self._ended.pop(record.id, None)
        if ended is not None:
            ended.set()

    def _retire(self, worker: faults.Worker) -> None:
        """Kill a compromised worker; the pool mints a replacement."""
        self.pool.retire(worker)
        self._counter(
            "daemon.sessions.retired",
            "warm workers killed and replaced after a timeout or crash",
        ).inc()

    async def _run(self, record: JobRecord) -> None:
        record.state = "running"
        record.started = time.time()
        self._running += 1
        self._update_gauges()
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        try:
            attempt = 0
            while True:
                attempt += 1
                record.meta["attempts"] = attempt
                worker = self.pool.acquire()
                record.meta["worker_pid"] = worker.pid
                try:
                    future = self._executor.submit(self._dispatch, record, worker, attempt)
                    outcome = await asyncio.wrap_future(future, loop=loop)
                except BaseException:
                    self._retire(worker)
                    raise
                self.pool.merge_reply(worker, outcome)
                status = outcome.get("status")
                if status == "ok":
                    self.pool.release(worker)
                    record.report_zlib = outcome["report_zlib"]
                    record.state = "done"
                    self._counter(
                        "daemon.jobs.completed", "jobs verified to completion"
                    ).inc()
                    return
                if status == "timeout":
                    # Not retried: a deterministic over-budget job would
                    # just burn another worker; the client can resubmit.
                    self._retire(worker)
                    self._fail(
                        record,
                        "TIMEOUT",
                        f"job exceeded the {self.job_timeout}s verification budget",
                        "daemon.jobs.timeouts",
                        "jobs failed by timeout",
                    )
                    return
                if status == "crashed":
                    self._retire(worker)
                    self._counter(
                        "faults.worker_crashes",
                        "daemon workers lost mid-job",
                    ).inc()
                    if attempt <= self.job_retries:
                        self._counter(
                            "faults.retries",
                            "units of work re-run after a worker crash",
                        ).inc()
                        await asyncio.sleep(
                            faults.RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1))
                        )
                        continue
                    self._fail(
                        record,
                        "WORKER_CRASHED",
                        outcome.get("message", "worker subprocess died")
                        + f" (after {attempt} attempts)",
                        "daemon.jobs.crashed",
                        "jobs failed: worker died on every attempt",
                    )
                    return
                # Structured error from the child ("error" status).
                self.pool.release(worker)
                self._fail(
                    record,
                    str(outcome.get("kind", "INTERNAL")),
                    str(outcome.get("message", "job failed")),
                    "daemon.jobs.failed",
                    "jobs failed by internal error",
                )
                return
        except Exception as exc:  # noqa: BLE001 — the record carries the error
            self._fail(
                record,
                "INTERNAL",
                f"{type(exc).__name__}: {exc}",
                "daemon.jobs.failed",
                "jobs failed by internal error",
            )
        finally:
            self._end(record)
            self._running -= 1
            self.registry.histogram(
                "daemon.job_seconds",
                REQUEST_LATENCY_BUCKETS,
                help="wall-clock seconds per job, admission to completion",
                unit="seconds",
            ).observe(record.finished - record.submitted)
            self._update_gauges()
            if self._idle is not None and self.active == 0:
                self._idle.set()
