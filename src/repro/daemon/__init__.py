"""``repro.daemon`` — the persistent verification service.

Every ``python -m repro`` invocation pays cold startup: interpreter boot,
parsing, intern-table construction, per-clause solver warm-up.  The daemon
pays it once: a long-lived asyncio HTTP/JSON server
(:mod:`repro.daemon.server`) keeps a pool of warm worker subprocesses
(:mod:`repro.daemon.workers`, one per concurrent worker, never shared
between running jobs), each holding a
:class:`~repro.service.session.VerifySession` — interned term tables, the
SMT answer cache, persistent :class:`~repro.smt.IncrementalSolver` state
and the content-addressed function-result cache — alive across requests,
behind a bounded job queue (:mod:`repro.daemon.queue`) with request
deduplication, per-tenant quotas (:mod:`repro.daemon.quotas`), job
timeouts, crash retries and graceful drain on shutdown.

* ``python -m repro serve`` starts a daemon;
* ``python -m repro --server URL prog.rs`` verifies through it (falling
  back to in-process verification when no daemon answers);
* :mod:`repro.daemon.client` is the programmatic client
  (``submit``/``wait``/``verify``);
* :mod:`repro.daemon.protocol` defines the JSON wire shapes;
* :mod:`repro.daemon.testing` runs a private in-process daemon for tests.

Operator's guide — endpoints, quotas, metrics, troubleshooting — in
``docs/daemon.md``.
"""

from repro.daemon.protocol import JobRecord, JobRequest, ProtocolError, error_payload
from repro.daemon.queue import JobQueue, QueueFull
from repro.daemon.quotas import QuotaExceeded, TenantQuotas
from repro.daemon.server import DaemonConfig, VerifyDaemon, run_daemon
from repro.daemon.workers import WorkerPool

__all__ = [
    "DaemonConfig",
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "ProtocolError",
    "QueueFull",
    "QuotaExceeded",
    "TenantQuotas",
    "WorkerPool",
    "VerifyDaemon",
    "error_payload",
    "run_daemon",
]
