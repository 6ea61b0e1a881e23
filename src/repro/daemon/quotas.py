"""Per-tenant concurrency quotas.

The daemon admits at most ``limit`` *active* (queued or running) jobs per
tenant; a submission over the limit is rejected up front with HTTP 429
rather than silently queueing behind an unbounded backlog.  Deduplicated
resubmissions do not consume quota — they attach to the already-admitted
job.

All bookkeeping happens on the daemon's event-loop thread, but the class
takes its own lock so direct use from tests (or a future multi-loop
server) stays correct.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class QuotaExceeded(Exception):
    """Tenant has too many active jobs (HTTP 429)."""

    def __init__(self, tenant: str, limit: int, active: int) -> None:
        super().__init__(
            f"tenant {tenant!r} has {active} active jobs (limit {limit})"
        )
        self.tenant = tenant
        self.limit = limit
        self.active = active


class TenantQuotas:
    """Counting semaphores keyed by tenant name.

    ``default_limit`` applies to every tenant without an explicit override;
    ``limits`` maps tenant names to per-tenant overrides.  A limit of 0 or
    less means *unlimited* (useful for a trusted internal tenant).
    """

    def __init__(
        self,
        default_limit: int = 8,
        limits: Optional[Dict[str, int]] = None,
    ) -> None:
        self.default_limit = default_limit
        self.limits = dict(limits or {})
        self._active: Dict[str, int] = {}
        self._lock = threading.Lock()

    def limit_for(self, tenant: str) -> int:
        return self.limits.get(tenant, self.default_limit)

    def acquire(self, tenant: str) -> None:
        """Admit one job for ``tenant`` or raise :class:`QuotaExceeded`."""
        limit = self.limit_for(tenant)
        with self._lock:
            active = self._active.get(tenant, 0)
            if limit > 0 and active >= limit:
                raise QuotaExceeded(tenant, limit, active)
            self._active[tenant] = active + 1

    def release(self, tenant: str) -> None:
        with self._lock:
            active = self._active.get(tenant, 0)
            if active <= 1:
                self._active.pop(tenant, None)
            else:
                self._active[tenant] = active - 1

    def snapshot(self) -> Dict[str, int]:
        """Active job counts per tenant (for ``/healthz``)."""
        with self._lock:
            return dict(self._active)
