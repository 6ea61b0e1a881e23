"""Per-run verification state.

A :class:`VerifySession` owns everything that used to live in module-level
globals: the SMT answer cache (an :class:`repro.smt.SmtContext`), the
per-function result cache, and the observability context (metrics
registry, span tracer, solver event log).  It also keeps the last job's
front end (:class:`ItemMemo`), so that an edit re-parses and re-elaborates
only the items it changed.
Two sessions never share mutable state, which is what makes it safe to run
several verifications concurrently in one process — and what lets worker
processes each build their own context without trampling a shared one.

While any session is active, the cyclic garbage collector runs with the
generation-0 threshold :data:`GC_THRESHOLD` and its pauses are timed (see
:meth:`VerifySession.activate`).
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.core.genv import GlobalEnv
from repro.lang import ast
from repro.obs import MetricsRegistry, ObsContext, use_obs
from repro.smt import SmtContext, use_context

from repro.service.cache import KeyTables, ResultCache

#: Generation-0 threshold of the cyclic garbage collector while a session is
#: active (CPython's default is 700).  A verification builds long-lived,
#: acyclic state — the term intern table, cached free-variable sets, solver
#: memos, SAT clause lists — that every full collection walks and almost
#: never frees: at 700 the collector took 11-19% of the time to verdict.
#: Generation-0 passes still run, so a long job reclaims its young cycles
#: (mostly closure cells and functions).
GC_THRESHOLD = 50_000


class _CollectorScope:
    """The collector policy while any session in the process is active.

    Process-wide, as the collector is: the outermost :meth:`enter` raises
    the generation-0 threshold and installs a ``gc.callbacks`` timer; the
    exit that ends the active period restores the thresholds it found,
    removes the timer and returns the pause seconds summed meanwhile.  The
    timer only adds to a float: a collection can start while the same
    thread iterates a metrics registry, so it must not touch one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = gc.get_threshold()
        self._started = 0.0
        self._paused = 0.0

    def _time(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self._paused += time.perf_counter() - self._started

    def enter(self) -> None:
        with self._lock:
            self._depth += 1
            if self._depth == 1:
                self._saved = gc.get_threshold()
                self._paused = 0.0
                gc.callbacks.append(self._time)
                gc.set_threshold(GC_THRESHOLD, *self._saved[1:])

    def exit(self) -> Optional[float]:
        """The pause seconds of the active period this exit ends, or
        ``None`` when an enclosing activation is still open."""
        with self._lock:
            self._depth -= 1
            if self._depth:
                return None
            gc.set_threshold(*self._saved)
            gc.callbacks.remove(self._time)
            return self._paused


_COLLECTOR = _CollectorScope()


class ItemMemo:
    """What the last job's front end made, for the next job to reuse.

    ``items`` maps the exact text of each item run
    (:func:`repro.lang.split_items`) to its parse, line numbers counted
    from the run's first line; an unchanged run is not parsed again, so its
    functions are the same objects in the next job.  ``genv`` is the last
    job's elaborated environment (see
    :meth:`~repro.core.genv.GlobalEnv.register_program`) and ``tables`` its
    cache-key tables (:class:`repro.service.cache.KeyTables`), which reuse
    what they derived from those same objects.  It holds one job's worth,
    and, like the session's cache counters, assumes the session verifies
    one job at a time.
    """

    def __init__(self) -> None:
        self.items: Dict[str, ast.Program] = {}
        self.genv: Optional[GlobalEnv] = None
        self.tables: Optional[KeyTables] = None


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
        self.memo = ItemMemo()
        self.jobs = max(1, int(jobs))
        self.fn_deadline = fn_deadline if fn_deadline and fn_deadline > 0 else None
        self.memory_limit_mb = memory_limit_mb if memory_limit_mb and memory_limit_mb > 0 else None

    # -- observability -----------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        return self.obs.registry

    def metrics_snapshot(self) -> dict:
        return self.obs.registry.snapshot()

    @contextmanager
    def activate(self) -> Iterator["VerifySession"]:
        """Make this session's SMT and observability contexts current.

        Until the outermost activation in the process exits, the collector's
        generation-0 threshold is :data:`GC_THRESHOLD`, so full collections
        stop landing inside requests; that exit restores the thresholds it
        found (on return and on exception alike) and adds the collector's
        pauses meanwhile to this session's ``gc.pause_seconds`` counter.
        ``--jobs`` workers, forked while a session is active, inherit the
        threshold but never end the active period, so their pauses are not
        counted.

        >>> import gc
        >>> found = gc.get_threshold()
        >>> session = VerifySession()
        >>> with session.activate():
        ...     gc.get_threshold()[0] == GC_THRESHOLD
        True
        >>> gc.get_threshold() == found
        True
        >>> session.metrics_snapshot()["gc.pause_seconds"]["unit"]
        'seconds'
        """
        _COLLECTOR.enter()
        try:
            with use_context(self.smt), use_obs(self.obs):
                yield self
        finally:
            paused = _COLLECTOR.exit()
            if paused is not None:
                self.obs.registry.counter(
                    "gc.pause_seconds",
                    help="cyclic garbage collector pauses while a session was active",
                    unit="seconds",
                ).inc(paused)
