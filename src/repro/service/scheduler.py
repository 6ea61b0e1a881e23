"""Dependency-aware, optionally parallel execution of per-function checks.

Flux checking is modular — a function consults callee *signatures*, never
callee bodies — so distinct functions verify independently and can run on a
``concurrent.futures`` process pool.  The scheduler still orders work
callee-first (topologically over the call graph): leaf results land first,
which keeps progress output meaningful and is the order a future
signature-inference pass would require.

Determinism: results are keyed by function name and re-assembled by the
caller in program order, so parallel runs report byte-identical diagnostics
to serial runs regardless of completion order.

Fault containment: every unit of work runs under an optional per-function
deadline (SIGALRM in the worker) and memory ceiling (``RLIMIT_AS`` in the
worker initializer), and a dead worker costs only the functions it was
running.  When the pool breaks, the scheduler attributes the crash to the
functions in flight, records them against a per-function circuit breaker,
rebuilds the pool once (with backoff) and re-runs *only the lost
functions*; a function that keeps killing workers is quarantined with a
structured ``WORKER_CRASHED`` verdict instead of being retried forever.
Only pool-infrastructure failures (a sandbox without process support,
unpicklable state) degrade to the serial path — and then only for the
functions that still lack results, never by discarding parallel progress.
"""

from __future__ import annotations

import concurrent.futures
import pickle
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.genv import GlobalEnv
from repro.core.pipeline import FunctionResult, _verify_function, definition_map, fault_result
from repro.fixpoint.solve import DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED, WORKER_CRASHED
from repro.lang import ast
from repro.mir.typeinfer import ProgramTypes
from repro.obs import MetricsRegistry, ObsContext, current_obs, use_obs
from repro.smt import SmtContext

#: A worker's observability delta for one function: the registry snapshot
#: plus any trace spans / structured events recorded while verifying it.
ObsPayload = Dict[str, object]

#: How many times a broken pool is rebuilt before the remaining functions
#: degrade to the in-process serial path.
MAX_POOL_REBUILDS = 1

#: Crashes recorded against one function before the breaker quarantines it.
CRASH_QUARANTINE_THRESHOLD = 2

#: Poll interval for the completion loop; each tick also snapshots which
#: functions are running, which is the crash-attribution evidence when the
#: pool breaks (a broken pool fails every unfinished future identically).
_CRASH_POLL_SECONDS = 0.05

#: Base backoff before resubmitting to a rebuilt pool (doubles per rebuild).
_REBUILD_BACKOFF_SECONDS = 0.05

# Per-worker-process state, built once by the pool initializer so each task
# ships only a function name, not the whole program.
_WORKER_GENV: Optional[GlobalEnv] = None
_WORKER_RUST: Optional[ProgramTypes] = None
_WORKER_FNS: Dict[str, ast.FnDef] = {}
_WORKER_SMT: Optional[SmtContext] = None
_WORKER_OBS: Optional[ObsContext] = None


def _init_worker(
    program: ast.Program,
    trace: bool = False,
    events: bool = False,
    memory_limit_mb: Optional[int] = None,
) -> None:
    global _WORKER_GENV, _WORKER_RUST, _WORKER_FNS, _WORKER_SMT, _WORKER_OBS
    # This process is disposable: injected crash faults may really SIGKILL
    # it, and the memory ceiling applies here rather than in the parent.
    faults.mark_worker()
    faults.apply_memory_limit(memory_limit_mb)
    _WORKER_GENV = GlobalEnv()
    _WORKER_GENV.register_program(program)
    _WORKER_RUST = ProgramTypes.from_program(program)
    _WORKER_FNS = definition_map(program)
    _WORKER_SMT = SmtContext()
    _WORKER_OBS = ObsContext.create(trace=trace, events=events)


def _worker_verify(
    name: str, deadline: Optional[float] = None, attempt: int = 1
) -> Tuple[str, FunctionResult, ObsPayload]:
    assert _WORKER_GENV is not None and _WORKER_RUST is not None and _WORKER_SMT is not None
    assert _WORKER_OBS is not None
    # Keep the worker's answer cache warm across functions, but give every
    # function a fresh metrics registry: the returned snapshot is then an
    # exact per-function delta the session can merge, wherever the pool
    # happened to schedule the function.
    registry = MetricsRegistry()
    _WORKER_OBS.registry = registry
    if _WORKER_OBS.tracer.enabled:
        _WORKER_OBS.tracer.registry = registry
    faults.set_attempt(attempt)
    started = time.perf_counter()
    with use_obs(_WORKER_OBS):
        try:
            with faults.enforce_deadline(deadline):
                faults.inject("scheduler.worker", key=name)
                result = _verify_function(
                    _WORKER_FNS[name], _WORKER_GENV, _WORKER_RUST, session=_WORKER_SMT
                )
        except faults.DeadlineExceeded:
            result = fault_result(
                name,
                DEADLINE_EXCEEDED,
                f"function exceeded its {deadline:g}s deadline",
                elapsed=time.perf_counter() - started,
            )
        except MemoryError:
            result = fault_result(
                name,
                RESOURCE_EXHAUSTED,
                "memory ceiling hit while verifying",
                elapsed=time.perf_counter() - started,
            )
    payload: ObsPayload = {
        "metrics": registry.snapshot(),
        "trace": _WORKER_OBS.tracer.drain(),
        "events": _WORKER_OBS.events.drain(),
    }
    return name, result, payload


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


def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: used on KeyboardInterrupt so Ctrl-C leaves
    no orphaned workers behind."""

    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        faults.reap_process(process, grace=0.5)


def _run_pool_round(
    program: ast.Program,
    names: Sequence[str],
    attempts: Dict[str, int],
    jobs: int,
    trace: bool,
    events: bool,
    deadline: Optional[float],
    memory_limit_mb: Optional[int],
    results: Dict[str, Tuple[FunctionResult, Optional[ObsPayload]]],
) -> Tuple[List[str], List[str], Optional[BaseException]]:
    """One pool lifetime: verify as many of ``names`` as possible.

    Returns ``(lost, suspects, infrastructure)``: ``lost`` is every name
    without a result when the round ended (empty on a clean round),
    ``suspects`` the subset observed *running* when the pool broke (the
    crash-attribution evidence), and ``infrastructure`` a non-crash pool
    failure, which the caller handles by finishing serially.
    """

    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(names)),
        initializer=_init_worker,
        initargs=(program, trace, events, memory_limit_mb),
    )
    pending: Dict[concurrent.futures.Future, str] = {}
    running: List[str] = []
    broke = False
    infrastructure: Optional[BaseException] = None
    try:
        try:
            for name in names:
                pending[pool.submit(_worker_verify, name, deadline, attempts[name])] = name
        except (BrokenProcessPool, RuntimeError):
            broke = True
        while pending and not broke and infrastructure is None:
            done, _not_done = concurrent.futures.wait(
                list(pending),
                timeout=_CRASH_POLL_SECONDS,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if not done:
                running = [name for future, name in pending.items() if future.running()]
                continue
            for future in done:
                name = pending.pop(future)
                error = future.exception()
                if error is None:
                    finished, result, obs_payload = future.result()
                    results[finished] = (result, obs_payload)
                elif isinstance(error, BrokenProcessPool):
                    # Every unfinished future fails identically once the
                    # pool breaks; keep them in ``pending`` so they count
                    # as lost, and use the last running snapshot as the
                    # suspect list.
                    pending[future] = name
                    broke = True
                elif isinstance(error, (pickle.PicklingError, ImportError, OSError)):
                    pending[future] = name
                    infrastructure = error
                else:
                    # Genuine verification exceptions propagate, as in
                    # serial mode.
                    raise error
            if not broke and infrastructure is None:
                running = [name for future, name in pending.items() if future.running()]
    except KeyboardInterrupt:
        _kill_pool(pool)
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    lost = [name for name in names if name not in results]
    if broke and lost and min(jobs, len(names)) == 1:
        # A one-worker pool runs strictly in submission order, so the
        # function in flight is known exactly: the first name without a
        # result.  The running snapshot cannot tell, because the executor
        # marks the call it queues behind the worker's as running too.
        suspects = [lost[0]]
    else:
        suspects = [name for name in running if name in set(lost)]
    return lost, suspects, infrastructure


def _run_parallel(
    program: ast.Program,
    ordered: Sequence[str],
    jobs: int,
    trace: bool,
    events: bool,
    deadline: Optional[float],
    memory_limit_mb: Optional[int],
    results: Dict[str, Tuple[FunctionResult, Optional[ObsPayload]]],
) -> List[str]:
    """Crash-contained parallel execution.

    Fills ``results`` (including quarantine verdicts) and returns the names
    the caller should finish on the in-process serial path — non-empty only
    when the pool infrastructure is unusable or the rebuild budget ran out.
    """

    registry = current_obs().registry
    breaker = faults.CircuitBreaker(max_crashes=CRASH_QUARANTINE_THRESHOLD)
    attempts = {name: 1 for name in ordered}
    remaining = list(ordered)
    rebuilds = 0
    while remaining:
        try:
            # The rebuilt pool runs one worker wide: with a single function
            # in flight, a repeat crash is attributed exactly, so the
            # breaker can never quarantine the innocent bystander that a
            # deterministic schedule keeps co-scheduling with the culprit.
            lost, suspects, infrastructure = _run_pool_round(
                program, remaining, attempts, jobs if rebuilds == 0 else 1,
                trace, events, deadline, memory_limit_mb, results,
            )
        except (OSError, ValueError) as error:
            # Could not even build the pool (no fork support, fd limits).
            warnings.warn(
                f"parallel verification unavailable ({type(error).__name__}: {error}); "
                "running the remaining functions serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return remaining
        remaining = [name for name in remaining if name not in results]
        if infrastructure is not None:
            warnings.warn(
                f"parallel verification failed ({type(infrastructure).__name__}: "
                f"{infrastructure}); finishing the remaining functions serially",
                RuntimeWarning,
                stacklevel=3,
            )
            return remaining
        if not lost:
            return []
        # The pool broke.  Blame the functions observed running at the
        # break (falling back to everything lost if the break happened
        # before the first poll), quarantine repeat offenders, and re-run
        # only what was lost.
        registry.counter(
            "faults.worker_crashes", help="scheduler pool breakages observed"
        ).inc()
        culprits = suspects or lost
        for name in culprits:
            if breaker.record(name) >= breaker.max_crashes:
                results[name] = (
                    fault_result(
                        name,
                        WORKER_CRASHED,
                        f"worker process died while verifying (x{breaker.max_crashes}); quarantined",
                    ),
                    None,
                )
        remaining = [name for name in remaining if name not in results]
        if not remaining:
            return []
        if rebuilds >= MAX_POOL_REBUILDS:
            warnings.warn(
                "scheduler pool broke again after its rebuild budget; "
                "finishing the remaining functions serially with faults contained",
                RuntimeWarning,
                stacklevel=3,
            )
            return remaining
        rebuilds += 1
        for name in remaining:
            attempts[name] += 1
        registry.counter(
            "faults.pool_rebuilds", help="scheduler pools rebuilt after a crash"
        ).inc()
        registry.counter(
            "faults.retries", help="units of work re-run after a worker crash"
        ).inc(len(remaining))
        time.sleep(_REBUILD_BACKOFF_SECONDS * (2 ** (rebuilds - 1)))
    return []


def _verify_serial(
    name: str,
    fns: Dict[str, ast.FnDef],
    genv: GlobalEnv,
    rust_context: ProgramTypes,
    smt_context: SmtContext,
    deadline: Optional[float],
    attempt: int = 1,
) -> FunctionResult:
    """In-process verification with the same fault boundary as a worker.

    Crash faults cannot SIGKILL the caller's process, so here they surface
    as :class:`~repro.faults.InjectedCrash` and degrade to the same
    structured ``WORKER_CRASHED`` verdict a real dead worker produces.
    """

    faults.set_attempt(attempt)
    started = time.perf_counter()
    try:
        with faults.enforce_deadline(deadline):
            faults.inject("scheduler.worker", key=name)
            return _verify_function(fns[name], genv, rust_context, session=smt_context)
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
) -> Dict[str, Tuple[FunctionResult, Optional[ObsPayload]]]:
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
    results: Dict[str, Tuple[FunctionResult, Optional[ObsPayload]]] = {}

    if jobs > 1 and len(ordered) > 1:
        remaining = _run_parallel(
            program, ordered, jobs, trace, events, fn_deadline, memory_limit_mb, results
        )
    else:
        remaining = list(ordered)

    for name in remaining:
        result = _verify_serial(
            name, fns, genv, rust_context, smt_context, fn_deadline
        )
        results[name] = (result, None)
    return results
