"""Outside-in layer timing for the traced runs.

The verifier is not edited: :class:`LayerTracer` replaces the public
entry points of each layer, as the modules that call them look them up,
with timing wrappers, and puts the originals back on :meth:`uninstall`.
A wrapper records its layer's *self* time (its duration minus the time
of wrapped calls nested inside it) and its call count, so the layers of
one process add up to the time spent inside them with no double counting.

Worker processes are forked after :meth:`install`, so they inherit the
wrappers.  Each process accumulates its figures locally and adds them to
a metrics registry as ``perfbench.<role>.<layer>.<field>`` counters (role
``main`` in the benchmark process, ``worker`` elsewhere) when the program
takes that registry's snapshot, which is when it ships one: a scheduler
worker returns a per-function registry delta, a daemon worker replies
with its session's snapshot, and ``verify_jobs`` reports its session's.
Flushing there rather than after every wrapped call keeps the tracer's
own bookkeeping out of the measured time.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Tuple

import repro.core.pipeline
import repro.service.api
import repro.smt.incremental
import repro.smt.interface
import repro.smt.solver
from repro.core.checker import Checker
from repro.core.genv import GlobalEnv
from repro.fixpoint import FixpointSolver
from repro.mir.typeinfer import ProgramTypes
from repro.obs import current_obs
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.smt import IncrementalSolver
from repro.smt.result import SatResult

PREFIX = "perfbench."

#: (layer, owner, attribute): the bindings the program's callers use.
TIMED: Tuple[Tuple[str, object, str], ...] = (
    ("lang.parse", repro.service.api, "parse_program"),
    ("core.genv.register", GlobalEnv, "__init__"),
    ("core.genv.register", GlobalEnv, "register_program"),
    ("core.genv.deps", GlobalEnv, "function_dependencies"),
    ("mir", repro.core.pipeline, "lower_function"),
    ("mir", repro.core.pipeline, "infer_types"),
    ("mir", ProgramTypes, "from_program"),
    ("core.checker", Checker, "check"),
    ("fixpoint", FixpointSolver, "solve"),
    ("smt.encode", IncrementalSolver, "literal_for"),
    ("smt.encode", repro.smt.interface, "solve_formula"),
    ("smt.search", repro.smt.incremental, "run_theory_loop"),
    ("smt.search", repro.smt.solver, "run_theory_loop"),
    ("service.cache.key", repro.service.api, "function_key"),
    ("service.cache.get", ResultCache, "get"),
    ("service.cache.put", ResultCache, "put"),
    ("service.scheduler", repro.service.api, "verify_functions"),
)

#: Counted but not timed: the one-shot query entry, the base of the
#: answer-cache hit ratio (its misses are the ``solve_formula`` calls).
COUNTED: Tuple[Tuple[str, object, str], ...] = (
    ("smt.check_sat", repro.smt.interface, "check_sat"),
)


def _observe_parse(add: Callable[[str, float], None], args: tuple, result: object) -> None:
    add("lang.bytes", len(args[0]))


def _observe_search(add: Callable[[str, float], None], args: tuple, answer) -> None:
    stats = answer.stats
    add("smt.sat_s", stats.sat_time)
    add("smt.theory_s", stats.theory_time)
    add("smt.conflicts", stats.sat_conflicts)
    add("smt.theory_propagations", stats.theory_propagations)
    add("smt.core_shrink_rounds", stats.core_shrink_rounds)
    if answer.result is SatResult.UNKNOWN:
        add("smt.unknown", 1)


_OBSERVERS = {"lang.parse": _observe_parse, "smt.search": _observe_search}


class LayerTracer:
    """Installs and removes the timing wrappers; see the module docstring."""

    def __init__(self) -> None:
        self._home = os.getpid()
        #: Registries whose contents never leave this process.
        self._unshipped = (current_obs().registry,)
        self._stack: List[List[float]] = []
        self._pending: Dict[str, float] = {}
        self._saved: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # A forked child starts with nothing recorded: the parent keeps
        # what it had, and the child's open frames never close here.  A
        # pool worker forked inside a session inherits a copy of that
        # session's registry, which nobody reads: wait for a registry the
        # child creates itself.
        self._stack = []
        self._pending = {}
        self._unshipped = (self._unshipped[0], current_obs().registry)

    def _add(self, name: str, amount: float) -> None:
        self._pending[name] = self._pending.get(name, 0) + amount

    def _flush(self, registry) -> None:
        if any(registry is unshipped for unshipped in self._unshipped):
            return
        role = "main" if os.getpid() == self._home else "worker"
        for name, amount in self._pending.items():
            registry.counter(f"{PREFIX}{role}.{name}").inc(max(0.0, amount))
        self._pending.clear()

    def _timed(self, layer: str, attribute: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(layer)
        self_key, total_key = f"{layer}.self_s", f"{layer}.total_s"
        calls_key = f"{layer}.{attribute}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._add(self_key, elapsed - frame[0])
                tracer._add(total_key, elapsed)
                tracer._add(calls_key, 1)
            if observe is not None:
                observe(tracer._add, args, result)
            return result

        return wrapper

    def _counted(self, name: str, attribute: str, fn: Callable) -> Callable:
        key = f"{name}.calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._add(key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _flushing(self, snapshot: Callable) -> Callable:
        tracer = self

        @functools.wraps(snapshot)
        def wrapper(registry, *args, **kwargs):
            tracer._flush(registry)
            return snapshot(registry, *args, **kwargs)

        return wrapper

    def _patch(self, owner: object, attribute: str, make: Callable[..., Callable]) -> None:
        original = vars(owner)[attribute]
        if isinstance(original, staticmethod):
            replacement: object = staticmethod(make(attribute, original.__func__))
        else:
            replacement = make(attribute, original)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for layer, owner, attribute in TIMED:
            self._patch(owner, attribute, functools.partial(self._timed, layer))
        for name, owner, attribute in COUNTED:
            self._patch(owner, attribute, functools.partial(self._counted, name))
        self._patch(MetricsRegistry, "snapshot", lambda _, fn: self._flushing(fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        self._stack = []
        self._pending = {}


def layer_figures(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """``{role: {"<layer>.<field>": value}}`` from registry counter values.

    Fields are ``self_s``, ``total_s`` and ``<attribute>.calls`` per timed
    layer, plus the observers' extra counts.
    """
    figures: Dict[str, Dict[str, float]] = {"main": {}, "worker": {}}
    for name, value in counters.items():
        if name.startswith(PREFIX):
            role, _, key = name[len(PREFIX):].partition(".")
            figures.setdefault(role, {})[key] = value
    return figures


#: Timed layers whose self times make up the verifier's own time.
SELF_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TIMED))
