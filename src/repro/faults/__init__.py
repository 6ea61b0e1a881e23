"""``repro.faults`` — fault injection and fault containment primitives.

The production promise of the service layer is *graceful per-function
degradation*: one crashing, hanging or memory-hungry unit of work (a
function verification or a daemon job) must cost exactly that unit, never
the run around it.  This package supplies both halves of
that promise:

* **containment** — :func:`enforce_deadline` (SIGALRM-based per-unit
  deadlines), :func:`apply_memory_limit` (an ``RLIMIT_AS`` ceiling for
  worker processes), :class:`CircuitBreaker` (quarantine a unit after
  repeated crashes) and :func:`live_children` (the zero-orphan audit);
* **injection** — a seeded registry of faults (:class:`FaultPlan` /
  :class:`FaultSpec`) fired at named sites via :func:`inject`, so the
  chaos harness can *prove* the containment works.  This generalises the
  ad-hoc ``REPRO_INJECT_THEORY_BUG`` hook the fuzz self-test introduced:
  instead of one hard-coded solver bug there is a plan of
  crash/hang/OOM/slow-IO faults at any instrumented site.

Injection sites currently instrumented (grep for ``faults.inject``):

========================  =====================================================
``scheduler.worker``      per function, in the scheduler worker (and the
                          serial loop), key = function name
``cache.write``           between the cache tmp-file write and its atomic
                          rename, key = function name
``theory.check``          at the start of every theory-solver check
``daemon.job``            in the daemon worker subprocess, key = job name
``daemon.queue``          on the daemon dispatch path, key = job name
========================  =====================================================

Plans travel to worker processes through the ``REPRO_FAULTS`` environment
variable (installed by :func:`install_plan` / :func:`inject_faults`), so
forked *and* spawned children honour the same schedule.  Every fired fault
counts into the ambient metrics registry as ``faults.injections`` (and
``faults.injections.<kind>``); containment layers add ``faults.retries``,
``faults.breaker_trips`` and ``faults.pool_rebuilds``.

See ``docs/robustness.md`` for the failure-mode matrix and the chaos-mode
recipe.
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.limits import DeadlineExceeded, apply_memory_limit, enforce_deadline
from repro.faults.procs import live_children, reap_process
from repro.faults.registry import (
    ENV_PLAN,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    active_plan,
    clear_plan,
    inject,
    inject_faults,
    install_plan,
    is_worker,
    mark_worker,
    set_attempt,
)

__all__ = [
    "CircuitBreaker",
    "DeadlineExceeded",
    "ENV_PLAN",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "active_plan",
    "apply_memory_limit",
    "clear_plan",
    "enforce_deadline",
    "inject",
    "inject_faults",
    "install_plan",
    "is_worker",
    "live_children",
    "mark_worker",
    "reap_process",
    "set_attempt",
]
