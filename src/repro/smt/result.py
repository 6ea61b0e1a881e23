"""Result types shared across the SMT solver layers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, Optional, Tuple


class SatResult(enum.Enum):
    """Three-valued satisfiability answer."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class CheckStats:
    """Typed per-check solver statistics.

    One record per satisfiability check, produced by the engine that ran it
    (the online DPLL(T) loop fills every field; the offline oracle only the
    fields its loop can observe).  This replaces the untyped
    ``Dict[str, float]`` that used to be diffed out of cumulative theory
    counters: the theory solver now zeroes a fresh record in ``begin_check``
    and hands it over in ``finish_check``.

    The record rides on :class:`SolverAnswer`, so answer-cache replays
    re-emit the *original* check's numbers — which keeps merged registry
    totals identical between serial and parallel runs (a worker that misses
    its private cache re-derives the same deterministic counts).  Reports
    read it in one place only: :func:`repro.smt.metrics_bridge.record_check_metrics`
    mirrors it into the metrics registry, and every report is a view of
    that registry.
    """

    engine: str = "online"
    theory_rounds: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_phase_saving_hits: int = 0
    theory_propagations: int = 0
    partial_checks: int = 0
    final_checks: int = 0
    core_shrink_rounds: int = 0
    shrink_budget_hits: int = 0
    explanations: int = 0
    explanation_literals: int = 0
    simplex_pivots: int = 0
    #: Clauses this check added to its solver's SAT core (learned clauses
    #: and theory lemmas, which survive ``pop()``); filled by
    #: :class:`repro.smt.IncrementalSolver` for every check, one-shot
    #: checks on their throwaway solver included.
    clauses_retained: int = 0
    sat_time: float = 0.0
    theory_time: float = 0.0
    #: Literal count of each conflict explanation in this check, in order —
    #: the raw feed of the explanation-size histogram (kept per-check so
    #: cache replays observe the same distribution the original check did).
    explanation_sizes: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {entry.name: getattr(self, entry.name) for entry in fields(self)}


@dataclass
class SolverAnswer:
    """Answer of a satisfiability query, with an optional model.

    The model maps refinement-variable names to rational values (booleans are
    encoded as 0/1).  It is only populated for ``SAT`` answers and is used by
    tests, by counterexample reporting, and by the liquid-fixpoint solver's
    sanity checks.
    """

    result: SatResult
    model: Optional[Dict[str, Fraction]] = None
    reason: str = ""
    stats: CheckStats = field(default_factory=CheckStats)
    #: Like ``model`` but *including* internal (``__``-prefixed) variables —
    #: preprocessor-introduced if-then-else/skolem names and checker temps.
    #: Model-based qualifier discarding evaluates goals that mention those
    #: names, so it must see their true values; user-facing counterexamples
    #: keep reading the filtered ``model``.
    full_model: Optional[Dict[str, Fraction]] = None

    @property
    def is_sat(self) -> bool:
        return self.result is SatResult.SAT

    @property
    def is_unsat(self) -> bool:
        return self.result is SatResult.UNSAT
