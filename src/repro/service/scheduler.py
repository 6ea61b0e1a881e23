"""Dependency-aware, optionally parallel execution of per-function checks.

Flux checking is modular — a function consults callee *signatures*, never
callee bodies — so distinct functions verify independently and can run in
separate worker processes.  The scheduler still orders work callee-first
(topologically over the call graph): leaf results land first, which keeps
progress output meaningful and is the order a future signature-inference
pass would require.

Determinism: results are keyed by function name and re-assembled by the
caller in program order, so parallel runs report byte-identical diagnostics
to serial runs regardless of completion order.

Parallel runs (``jobs > 1``) fork ``min(jobs, len(names))``
:class:`repro.faults.Worker` processes once the caller has elaborated the
program, so every worker inherits ``GlobalEnv`` and the Rust types instead
of rebuilding them, and hand each idle worker the next function in
topological order.

Fault containment: serial and parallel runs verify every function through
one boundary, :func:`_verify_contained`, which turns an overrun of the
per-function deadline (SIGALRM, in the worker), a ``MemoryError`` (the
worker's ``RLIMIT_AS`` ceiling) and a ``RecursionError`` (input nested
deeper than the stack) into structured verdicts.  A worker that
dies costs only the function it was running — its closed pipe names that
function — which re-runs on a fresh worker up to
:data:`repro.faults.CRASH_RETRIES` times and then gets a structured
``WORKER_CRASHED`` verdict, the daemon's ``--job-retries`` rule.  Only a
worker that cannot be started at all (no fork support, fd limits) sends
the remaining functions to the in-process serial path.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from multiprocessing.connection import wait
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.genv import GlobalEnv
from repro.core.pipeline import FunctionResult, _verify_function, definition_map, fault_result
from repro.fixpoint.solve import DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED, WORKER_CRASHED
from repro.lang import ast
from repro.mir.typeinfer import ProgramTypes
from repro.obs import ObsContext, current_obs, use_obs
from repro.smt import SmtContext

#: A worker's observability delta for one function: the registry snapshot
#: plus any trace spans / structured events recorded while verifying it.
ObsPayload = Dict[str, object]

Results = Dict[str, Tuple[FunctionResult, Optional[ObsPayload]]]

#: What a ``RecursionError`` means to the user: some recursive pass (parser,
#: lowering, simplifier, encoder) met input nested deeper than the stack.
TOO_DEEP = "input nests too deeply to verify"


def _verify_contained(
    name: str,
    fns: Dict[str, ast.FnDef],
    genv: GlobalEnv,
    rust_context: ProgramTypes,
    smt_context: SmtContext,
    deadline: Optional[float],
) -> FunctionResult:
    """Verify one function inside the fault boundary.

    The serial loop and every worker call this.  A crash fault SIGKILLs a
    worker, whose parent sees the closed pipe; in-process it surfaces as
    :class:`~repro.faults.InjectedCrash` and degrades to the same
    structured ``WORKER_CRASHED`` verdict a dead worker produces.
    """

    started = time.perf_counter()
    try:
        with faults.enforce_deadline(deadline):
            faults.inject("scheduler.worker", key=name)
            return _verify_function(fns[name], genv, rust_context, smt_context)
    except faults.InjectedCrash as error:
        return fault_result(name, WORKER_CRASHED, str(error), elapsed=time.perf_counter() - started)
    except faults.DeadlineExceeded:
        return fault_result(
            name,
            DEADLINE_EXCEEDED,
            f"function exceeded its {deadline:g}s deadline",
            elapsed=time.perf_counter() - started,
        )
    except MemoryError:
        return fault_result(
            name,
            RESOURCE_EXHAUSTED,
            "memory ceiling hit while verifying",
            elapsed=time.perf_counter() - started,
        )
    except RecursionError:
        return fault_result(
            name, RESOURCE_EXHAUSTED, TOO_DEEP, elapsed=time.perf_counter() - started
        )


def _serve_functions(
    fns: Dict[str, ast.FnDef],
    genv: GlobalEnv,
    rust_context: ProgramTypes,
    deadline: Optional[float],
    trace: bool,
    events: bool,
) -> Callable[[], Callable[[str], object]]:
    """The worker side: verify one function name per request."""

    def factory() -> Callable[[str], object]:
        # Runs in the child: one SMT context for the worker's lifetime keeps
        # its answer cache warm across functions.
        smt_context = SmtContext()
        obs = ObsContext.create(trace=trace, events=events)

        def serve(name: str) -> object:
            with use_obs(obs):
                try:
                    result = _verify_contained(
                        name, fns, genv, rust_context, smt_context, deadline
                    )
                except Exception as error:  # noqa: BLE001 — re-raised in the parent
                    return error
            payload: ObsPayload = {
                "metrics": obs.take_metrics(),
                "trace": obs.tracer.drain(),
                "events": obs.events.drain(),
            }
            return result, payload

        return serve

    return factory


def topological_order(
    names: Sequence[str],
    genv: GlobalEnv,
    fns: Dict[str, ast.FnDef],
    deps: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> List[str]:
    """Order ``names`` callee-first; cycles fall back to the given order.

    ``deps`` maps a function name to its precomputed callee names so callers
    that already extracted dependencies (for cache keys) avoid a second walk.
    """
    indexed = {name: position for position, name in enumerate(names)}
    order: List[str] = []
    visiting: set = set()
    done: set = set()

    def callees_of(name: str) -> List[str]:
        if deps is not None and name in deps:
            callees: Sequence[str] = deps[name]
        else:
            callees, _ = genv.function_dependencies(fns[name])
        # Reverse-sorted because the DFS below pops from the end: children
        # are then visited in ascending program order, deterministically.
        return sorted(
            (c for c in callees if c in indexed), key=lambda n: indexed[n], reverse=True
        )

    # Iterative DFS: call chains can be arbitrarily deep, and a
    # RecursionError here would kill the whole report.
    for root in names:
        if root in done:
            continue
        visiting.add(root)
        stack: List[Tuple[str, List[str]]] = [(root, callees_of(root))]
        while stack:
            name, children = stack[-1]
            while children and (children[-1] in done or children[-1] in visiting):
                children.pop()
            if children:
                child = children.pop()
                visiting.add(child)
                stack.append((child, callees_of(child)))
            else:
                stack.pop()
                visiting.discard(name)
                done.add(name)
                order.append(name)
    return order


def _run_parallel(
    ordered: Sequence[str],
    jobs: int,
    factory: Callable[[], Callable[[str], object]],
    memory_limit_mb: Optional[int],
    results: Results,
) -> List[str]:
    """Verify ``ordered`` on forked workers, one function per worker at a time.

    Fills ``results`` (crash verdicts included) and returns the names left
    for the in-process serial path: non-empty only when no worker could be
    started.
    """

    registry = current_obs().registry
    queue: Deque[Tuple[str, int]] = deque((name, 1) for name in ordered)
    idle: List[faults.Worker] = []
    busy: Dict[object, Tuple[faults.Worker, str, int]] = {}
    start_error: Optional[BaseException] = None

    def add_worker() -> None:
        nonlocal start_error
        try:
            idle.append(
                faults.Worker(
                    factory, name="repro-scheduler-worker", memory_limit_mb=memory_limit_mb
                )
            )
        except (OSError, ValueError) as error:
            start_error = error

    try:
        for _ in range(min(jobs, len(ordered))):
            add_worker()
        while busy or (queue and idle):
            while queue and idle:
                worker = idle.pop()
                name, attempt = queue.popleft()
                worker.send(name, attempt)
                busy[worker.conn] = (worker, name, attempt)
            for conn in wait(list(busy)):
                worker, name, attempt = busy.pop(conn)
                status, reply = worker.receive()
                if status == "ok":
                    idle.append(worker)
                    if isinstance(reply, BaseException):
                        raise reply  # a verification error, as in serial mode
                    results[name] = reply
                    continue
                # The pipe closed: the worker died running exactly ``name``.
                registry.counter(
                    "faults.worker_crashes", help="scheduler workers that died mid-function"
                ).inc()
                worker.kill()
                add_worker()
                if attempt <= faults.CRASH_RETRIES:
                    registry.counter(
                        "faults.retries", help="units of work re-run after a worker crash"
                    ).inc()
                    queue.appendleft((name, attempt + 1))
                else:
                    results[name] = (
                        fault_result(
                            name,
                            WORKER_CRASHED,
                            f"worker process died while verifying, on all {attempt} attempts",
                        ),
                        None,
                    )
    except BaseException:
        # Ctrl-C, or an error re-raised from a worker: nothing is worth
        # waiting for, so no worker outlives the run.
        for worker in (*idle, *(worker for worker, _, _ in busy.values())):
            worker.kill()
        raise
    for worker in idle:
        worker.stop()
    if queue:
        warnings.warn(
            f"parallel verification unavailable ({type(start_error).__name__}: {start_error}); "
            "running the remaining functions serially",
            RuntimeWarning,
            stacklevel=3,
        )
    return [name for name, _ in queue]


def verify_functions(
    program: ast.Program,
    names: Sequence[str],
    genv: GlobalEnv,
    rust_context: ProgramTypes,
    smt_context: SmtContext,
    jobs: int = 1,
    deps: Optional[Dict[str, Tuple[str, ...]]] = None,
    fns: Optional[Dict[str, ast.FnDef]] = None,
    trace: bool = False,
    events: bool = False,
    fn_deadline: Optional[float] = None,
    memory_limit_mb: Optional[int] = None,
) -> Results:
    """Verify ``names``; per-function results plus worker obs deltas.

    Serial runs record straight into the ambient observability context (obs
    entries are ``None``); parallel runs return each worker's deltas for
    the caller to merge.  ``trace`` and
    ``events`` forward the session's tracer/event-log switches to workers.
    ``fns`` may carry a precomputed ``definition_map(program)``.

    ``fn_deadline`` bounds each function's wall-clock (structured
    ``DEADLINE_EXCEEDED`` verdict on overrun); ``memory_limit_mb`` caps
    each worker process's address space (``RESOURCE_EXHAUSTED``).  Both
    are containment boundaries, not verdict changes: a function that fits
    the budget verifies byte-identically with or without them.
    """
    if fns is None:
        fns = definition_map(program)
    ordered = topological_order(names, genv, fns, deps=deps)
    results: Results = {}
    remaining: List[str] = list(ordered)

    if jobs > 1 and len(ordered) > 1:
        factory = _serve_functions(fns, genv, rust_context, fn_deadline, trace, events)
        remaining = _run_parallel(ordered, jobs, factory, memory_limit_mb, results)

    faults.set_attempt(1)
    for name in remaining:
        result = _verify_contained(name, fns, genv, rust_context, smt_context, fn_deadline)
        results[name] = (result, None)
    return results
