"""Fixpoint-solver benchmarking harness.

Two granularities, shared by ``scripts/bench_fixpoint.py`` (the CI benchmark
lane) and ``benchmarks/test_fixpoint_incremental.py`` (the differential /
speedup gate):

* :func:`run_program_metrics` — end-to-end metrics for one Table-1 program,
  verified through :mod:`repro.service` in a fresh, cache-less session
  (what ``BENCH_fixpoint.json`` records);
* :func:`collect_function_constraints` / :func:`solve_constraints` — the
  phase-3 liquid inference in isolation, so the incremental and naive
  strategies can be compared on *identical* Horn constraints without paying
  for parsing/lowering/checking twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.programs import BenchmarkProgram, benchmark_programs
from repro.logic import term_cache_stats
from repro.core.checker import Checker
from repro.core.errors import FluxError
from repro.core.genv import GlobalEnv
from repro.fixpoint import FixpointResult, FixpointSolver
from repro.fixpoint.constraint import Constraint, KVarDecl, c_conj
from repro.lang import LexError, ParseError, parse_program
from repro.mir.lower import lower_function
from repro.mir.typeinfer import ProgramTypes, infer_types
from repro.obs import ObsContext, use_obs
from repro.service import VerifySession, verify_source
from repro.smt import SmtContext, use_context


@dataclass
class FunctionConstraints:
    """The Horn constraint problem of one checked function."""

    program: str
    function: str
    kvar_decls: Dict[str, KVarDecl]
    constraint: Constraint


@dataclass
class StrategyOutcome:
    """Aggregated result of solving a batch of constraints one way.  The
    counts are the batch registry's ``fixpoint.*`` and
    ``smt.clauses_retained`` counters."""

    strategy: str
    elapsed: float = 0.0
    smt_queries: int = 0
    from_scratch_solves: int = 0
    assumption_checks: int = 0
    incremental_hits: int = 0
    batched_checks: int = 0
    clauses_retained: int = 0
    # function -> (solution as printable strings, sorted error descriptions)
    results: Dict[str, Tuple[Dict[str, str], Tuple[str, ...]]] = field(
        default_factory=dict
    )

    def record(self, key: str, result: FixpointResult) -> None:
        solution = {name: str(expr) for name, expr in sorted(result.solution.items())}
        errors = tuple(sorted(f"{e.kind}:{e.tag}" for e in result.errors))
        self.results[key] = (solution, errors)


def collect_function_constraints(
    program: BenchmarkProgram,
) -> List[FunctionConstraints]:
    """Phase 1+2 (elaboration and constraint generation) for every target
    function of a benchmark's Flux side.  Raises the usual pipeline errors
    (``ParseError``/``FluxError``) for programs outside the supported
    fragment — callers skip those."""
    parsed = parse_program(program.flux_source)
    genv = GlobalEnv()
    genv.register_program(parsed)
    rust_context = ProgramTypes.from_program(parsed)
    collected: List[FunctionConstraints] = []
    for fn in parsed.functions:
        if fn.name not in program.flux_functions:
            continue
        signature = genv.signature(fn.name)
        if signature.trusted or fn.body is None:
            continue
        body = lower_function(fn)
        infer_types(body, rust_context)
        output = Checker(body, genv, signature).check()
        collected.append(
            FunctionConstraints(
                program=program.name,
                function=fn.name,
                kvar_decls=dict(output.kvar_decls),
                constraint=c_conj(*output.constraints),
            )
        )
    return collected


def solve_constraints(
    batch: List[FunctionConstraints], strategy: str
) -> StrategyOutcome:
    """Solve every constraint problem in ``batch`` with ``strategy``, each
    under a fresh :class:`SmtContext` so answer caches never leak between
    strategies or functions, and the batch under a fresh
    :class:`~repro.obs.ObsContext` whose registry the solver counters are
    read from."""
    outcome = StrategyOutcome(strategy=strategy)
    obs = ObsContext.create()
    started = time.perf_counter()
    for item in batch:
        solver = FixpointSolver(strategy=strategy)
        for decl in item.kvar_decls.values():
            solver.declare(decl)
        with use_obs(obs), use_context(SmtContext()):
            result = solver.solve(item.constraint)
        outcome.record(f"{item.program}::{item.function}", result)
    outcome.elapsed = time.perf_counter() - started
    registry = obs.registry
    outcome.smt_queries = registry.value("fixpoint.smt_queries")
    outcome.from_scratch_solves = registry.value("fixpoint.from_scratch_solves")
    outcome.assumption_checks = registry.value("fixpoint.assumption_checks")
    outcome.incremental_hits = registry.value("fixpoint.incremental_hits")
    outcome.batched_checks = registry.value("fixpoint.batched_checks")
    outcome.clauses_retained = registry.value("smt.clauses_retained")
    return outcome


_TERM_DELTA_KEYS = (
    "intern_hits",
    "intern_misses",
    "subst_cache_hits",
    "subst_cache_misses",
    "simplify_cache_hits",
    "simplify_cache_misses",
)


def side_metric_deltas(before: Dict[str, int]) -> Dict[str, int]:
    """Per-run growth of the counters since ``before`` (a snapshot).

    The intern table and its memo caches are process-wide (that is the point
    of hash-consing), so per-program metrics report the *growth* during this
    run; ``intern_table_size`` reports the absolute size, which is what a
    capacity dashboard wants.
    """
    now = term_cache_stats()
    deltas = {key: now[key] - before.get(key, 0) for key in _TERM_DELTA_KEYS}
    deltas["intern_table_size"] = now["intern_table_size"]
    return deltas


def snapshot_value(snapshot: Dict[str, Dict[str, object]], name: str) -> float:
    """A scalar metric's value from a registry snapshot (0 when absent —
    counters are only registered on first increment)."""
    entry = snapshot.get(name)
    if entry is None:
        return 0
    return entry.get("value", 0)  # type: ignore[return-value]


def fixpoint_metric_view(snapshot: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """The ``BENCH_fixpoint.json`` counter block as a view of one run's
    registry snapshot.  The fixpoint loop's own counts read ``fixpoint.*``;
    solver counts read ``smt.*``, so they cover one-shot checks too."""
    explanations = snapshot_value(snapshot, "smt.explanations")
    literals = snapshot_value(snapshot, "smt.explanation_literals")
    return {
        "smt_queries": snapshot_value(snapshot, "fixpoint.smt_queries"),
        "from_scratch_solves": snapshot_value(snapshot, "fixpoint.from_scratch_solves"),
        "assumption_checks": snapshot_value(snapshot, "fixpoint.assumption_checks"),
        "incremental_hits": snapshot_value(snapshot, "fixpoint.incremental_hits"),
        "clauses_retained": snapshot_value(snapshot, "smt.clauses_retained"),
        "batched_checks": snapshot_value(snapshot, "fixpoint.batched_checks"),
        "theory_propagations": snapshot_value(snapshot, "smt.theory_propagations"),
        "partial_checks": snapshot_value(snapshot, "smt.partial_checks"),
        "core_shrink_rounds": snapshot_value(snapshot, "smt.core_shrink_rounds"),
        "shrink_budget_hits": snapshot_value(snapshot, "smt.shrink_budget_hits"),
        "explanations": explanations,
        "explanation_literals": literals,
        "avg_explanation_len": round(literals / explanations, 3) if explanations else 0.0,
        "phase_saving_hits": snapshot_value(snapshot, "smt.sat_phase_saving_hits"),
        "sat_time": snapshot_value(snapshot, "smt.sat_seconds"),
        "theory_time": snapshot_value(snapshot, "smt.theory_seconds"),
    }


def run_program_metrics(
    program: BenchmarkProgram, session: Optional[VerifySession] = None
) -> Dict[str, object]:
    """End-to-end Flux metrics for one benchmark program.

    Verifies through :mod:`repro.service`, by default in a fresh
    ``VerifySession(use_cache=False)``; the counter block of the report is
    read straight off the session's registry snapshot
    (:func:`fixpoint_metric_view`), so pass a fresh session per program.
    Callers that want the raw snapshot, a trace or the event log afterwards
    (``scripts/profile_check.py``) read ``session.obs``.
    """
    if session is None:
        session = VerifySession(use_cache=False)
    before = term_cache_stats()
    started = time.perf_counter()
    try:
        result = verify_source(program.flux_source, only=program.flux_functions, session=session)
    except (FluxError, ParseError, LexError) as error:
        return {
            "error": f"{type(error).__name__}: {error}",
            "elapsed": time.perf_counter() - started,
        }
    metrics: Dict[str, object] = {
        "elapsed": time.perf_counter() - started,
        "verified": result.ok,
        "failures": sorted(str(d) for d in result.diagnostics),
    }
    metrics.update(fixpoint_metric_view(session.metrics_snapshot()))
    metrics.update(side_metric_deltas(before))
    return metrics


def table1_programs(names: Optional[List[str]] = None) -> List[BenchmarkProgram]:
    programs = benchmark_programs()
    if names:
        wanted = set(names)
        unknown = wanted - {p.name for p in programs}
        if unknown:
            raise ValueError(f"unknown benchmark program(s): {', '.join(sorted(unknown))}")
        programs = [p for p in programs if p.name in wanted]
    return programs
