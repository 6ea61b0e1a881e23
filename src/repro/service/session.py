"""Per-run verification state.

A :class:`VerifySession` owns everything that used to live in module-level
globals: the SMT statistics and answer cache (an
:class:`repro.smt.SmtContext`), the per-function result cache, and the
observability context (metrics registry, span tracer, solver event log).
Two sessions never share mutable state, which is what makes it safe to run
several verifications concurrently in one process — and what lets worker
processes each build their own context without trampling a shared one.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, Optional

from repro.obs import MetricsRegistry, ObsContext, use_obs
from repro.smt import SmtContext, SmtStats, use_context

from repro.service.cache import ResultCache


class VerifySession:
    """Owns the mutable state of one verification run (or server lifetime).

    Parameters
    ----------
    cache_dir:
        When given, function results persist as JSON under this directory and
        survive across sessions/processes.
    use_cache:
        Set to ``False`` to disable the per-function result cache entirely
        (the SMT answer cache within a run stays on; it is what makes a
        single fixpoint run tractable).
    jobs:
        Default worker count for :meth:`repro.service.api.verify_jobs`;
        ``1`` means serial.
    trace:
        Enable span tracing.  Spans from this process and from scheduler
        workers accumulate in ``self.obs.tracer`` for Chrome-trace export.
    events:
        Enable the structured solver event log (``self.obs.events``).
    fn_deadline:
        Per-function wall-clock budget in seconds; overruns degrade to a
        structured ``DEADLINE_EXCEEDED`` verdict instead of stalling the
        run (see :mod:`repro.faults`).  ``None`` means unbounded.
    memory_limit_mb:
        Address-space ceiling applied to scheduler worker processes;
        allocation failure degrades to ``RESOURCE_EXHAUSTED``.

    The metrics registry is always on — counters are cheap and the
    ``--stats`` / ``--metrics-out`` views read them unconditionally.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        jobs: int = 1,
        trace: bool = False,
        events: bool = False,
        fn_deadline: Optional[float] = None,
        memory_limit_mb: Optional[int] = None,
    ) -> None:
        self.smt = SmtContext()
        self.obs = ObsContext.create(trace=trace, events=events)
        self.cache = ResultCache(cache_dir=cache_dir, enabled=use_cache)
        self.jobs = max(1, int(jobs))
        self.fn_deadline = fn_deadline if fn_deadline and fn_deadline > 0 else None
        self.memory_limit_mb = memory_limit_mb if memory_limit_mb and memory_limit_mb > 0 else None

    # -- SMT state ---------------------------------------------------------------

    @property
    def stats(self) -> SmtStats:
        return self.smt.stats

    def reset_stats(self) -> None:
        self.smt.stats = SmtStats()

    # -- observability -----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        return self.obs.registry

    def metrics_snapshot(self) -> dict:
        return self.obs.registry.snapshot()

    @contextmanager
    def activate(self) -> Iterator["VerifySession"]:
        """Make this session's SMT and observability contexts current."""
        with ExitStack() as stack:
            stack.enter_context(use_context(self.smt))
            stack.enter_context(use_obs(self.obs))
            yield self
