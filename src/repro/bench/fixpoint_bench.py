"""Fixpoint-solver benchmarking harness.

Two granularities, shared by ``scripts/bench_fixpoint.py`` (the CI benchmark
lane) and ``benchmarks/test_fixpoint_incremental.py`` (the differential /
speedup gate):

* :func:`run_program_metrics` — end-to-end pipeline metrics for one Table-1
  program under a fresh SMT context (what ``BENCH_fixpoint.json`` records);
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
from repro.core import verify_source
from repro.logic import term_cache_stats
from repro.smt.atoms import numeric_path_counts
from repro.core.checker import Checker
from repro.core.errors import FluxError
from repro.core.genv import GlobalEnv
from repro.fixpoint import FixpointResult, FixpointSolver
from repro.fixpoint.constraint import Constraint, KVarDecl, c_conj
from repro.lang import LexError, ParseError, parse_program
from repro.mir.lower import lower_function
from repro.mir.typeinfer import ProgramTypes, infer_types
from repro.obs import ObsContext, use_obs
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
    """Aggregated result of solving a batch of constraints one way."""

    strategy: str
    elapsed: float = 0.0
    smt_queries: int = 0
    from_scratch_solves: int = 0
    assumption_checks: int = 0
    incremental_hits: int = 0
    clauses_retained: int = 0
    batched_checks: int = 0
    theory_propagations: int = 0
    partial_checks: int = 0
    core_shrink_rounds: int = 0
    # function -> (solution as printable strings, sorted error descriptions)
    results: Dict[str, Tuple[Dict[str, str], Tuple[str, ...]]] = field(
        default_factory=dict
    )

    def record(self, key: str, result: FixpointResult) -> None:
        self.smt_queries += result.smt_queries
        self.from_scratch_solves += result.from_scratch_solves
        self.assumption_checks += result.assumption_checks
        self.incremental_hits += result.incremental_hits
        self.clauses_retained += result.clauses_retained
        self.batched_checks += result.batched_checks
        self.theory_propagations += result.theory_propagations
        self.partial_checks += result.partial_checks
        self.core_shrink_rounds += result.core_shrink_rounds
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
    strategies or functions."""
    outcome = StrategyOutcome(strategy=strategy)
    started = time.perf_counter()
    for item in batch:
        solver = FixpointSolver(strategy=strategy)
        for decl in item.kvar_decls.values():
            solver.declare(decl)
        with use_context(SmtContext()):
            result = solver.solve(item.constraint)
        outcome.record(f"{item.program}::{item.function}", result)
    outcome.elapsed = time.perf_counter() - started
    return outcome


def dplt_metric_sums(functions) -> Dict[str, float]:
    """Online-DPLL(T) engine counters summed over per-function results.

    Shared by :func:`run_program_metrics` and
    :meth:`repro.bench.suite.BenchmarkCase.run_flux` so the two reports
    cannot diverge; ``avg_explanation_len`` is derived here from the two
    raw sums so every consumer gets the same definition.
    """
    explanations = sum(fn.smt_explanations for fn in functions)
    literals = sum(fn.smt_explanation_literals for fn in functions)
    return {
        "batched_checks": sum(fn.smt_batched_checks for fn in functions),
        "theory_propagations": sum(fn.smt_theory_propagations for fn in functions),
        "partial_checks": sum(fn.smt_partial_checks for fn in functions),
        "core_shrink_rounds": sum(fn.smt_core_shrink_rounds for fn in functions),
        "shrink_budget_hits": sum(fn.smt_shrink_budget_hits for fn in functions),
        "explanations": explanations,
        "explanation_literals": literals,
        "avg_explanation_len": round(literals / explanations, 3) if explanations else 0.0,
        "phase_saving_hits": sum(fn.smt_phase_saving_hits for fn in functions),
        "sat_time": sum(fn.smt_sat_time for fn in functions),
        "theory_time": sum(fn.smt_theory_time for fn in functions),
    }


_TERM_DELTA_KEYS = (
    "intern_hits",
    "intern_misses",
    "subst_cache_hits",
    "subst_cache_misses",
    "simplify_cache_hits",
    "simplify_cache_misses",
)
_PATH_DELTA_KEYS = ("int_atoms", "fraction_atoms", "int_divisions", "fraction_divisions")


def term_metric_snapshot() -> Dict[str, int]:
    """Snapshot of the process-global term-layer/arithmetic counters."""
    snapshot = dict(term_cache_stats())
    snapshot.update(numeric_path_counts())
    return snapshot


def side_metric_deltas(before: Dict[str, int]) -> Dict[str, int]:
    """Per-run growth of the counters since ``before`` (a snapshot).

    The intern table and its memo caches are process-wide (that is the point
    of hash-consing), so per-program metrics report the *growth* during this
    run; ``intern_table_size`` reports the absolute size, which is what a
    capacity dashboard wants.  Shared by :func:`run_program_metrics` and
    :meth:`repro.bench.suite.BenchmarkCase.run_flux` so the two reports
    cannot diverge.
    """
    now = term_metric_snapshot()
    deltas = {
        key: now[key] - before.get(key, 0) for key in _TERM_DELTA_KEYS + _PATH_DELTA_KEYS
    }
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
    registry snapshot.  Every key used to be a hand-rolled sum over
    per-function results; the registry's ``fixpoint.*`` counters accumulate
    exactly the same per-solve values, so the numbers are unchanged."""
    explanations = snapshot_value(snapshot, "fixpoint.explanations")
    literals = snapshot_value(snapshot, "fixpoint.explanation_literals")
    return {
        "smt_queries": snapshot_value(snapshot, "fixpoint.smt_queries"),
        "from_scratch_solves": snapshot_value(snapshot, "fixpoint.from_scratch_solves"),
        "assumption_checks": snapshot_value(snapshot, "fixpoint.assumption_checks"),
        "incremental_hits": snapshot_value(snapshot, "fixpoint.incremental_hits"),
        "clauses_retained": snapshot_value(snapshot, "fixpoint.clauses_retained"),
        "batched_checks": snapshot_value(snapshot, "fixpoint.batched_checks"),
        "theory_propagations": snapshot_value(snapshot, "fixpoint.theory_propagations"),
        "partial_checks": snapshot_value(snapshot, "fixpoint.partial_checks"),
        "core_shrink_rounds": snapshot_value(snapshot, "fixpoint.core_shrink_rounds"),
        "shrink_budget_hits": snapshot_value(snapshot, "fixpoint.shrink_budget_hits"),
        "explanations": explanations,
        "explanation_literals": literals,
        "avg_explanation_len": round(literals / explanations, 3) if explanations else 0.0,
        "phase_saving_hits": snapshot_value(snapshot, "fixpoint.sat_phase_saving_hits"),
        "sat_time": snapshot_value(snapshot, "fixpoint.sat_seconds"),
        "theory_time": snapshot_value(snapshot, "fixpoint.theory_seconds"),
    }


def run_program_metrics(
    program: BenchmarkProgram, obs: Optional[ObsContext] = None
) -> Dict[str, object]:
    """End-to-end Flux metrics for one benchmark program.

    Runs under a fresh :class:`SmtContext` *and* a fresh
    :class:`~repro.obs.ObsContext`; the counter block of the report is read
    straight off the run's registry snapshot (:func:`fixpoint_metric_view`).
    Callers that want the raw snapshot, a trace or the event log afterwards
    (``scripts/profile_check.py``) pass their own ``obs``.
    """
    if obs is None:
        obs = ObsContext.create()
    before = term_metric_snapshot()
    started = time.perf_counter()
    try:
        with use_obs(obs), use_context(SmtContext()):
            result = verify_source(program.flux_source, only=program.flux_functions)
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
    metrics.update(fixpoint_metric_view(obs.registry.snapshot()))
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
