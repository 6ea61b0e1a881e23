"""Bridge from per-check solver statistics to the observability layer.

Every fresh satisfiability check (:meth:`repro.smt.IncrementalSolver._check`,
one-shot checks on a throwaway solver included) and every answer-cache
replay (``repro.smt.check_sat``) funnels its typed
:class:`~repro.smt.result.CheckStats` through :func:`record_check_metrics`,
which increments the current :class:`repro.obs.MetricsRegistry` and, when
the structured event log is on, appends one ``smt_check`` record.  This is
the only code that reads a check's statistics for reporting: per-function
results, the CLI/daemon JSON and ``BENCH_fixpoint.json`` are all views of
the registry.

Determinism contract: the record rides on the answer, so answer-cache
replays re-emit the original check's counts.  A fresh one-shot solve of the
same formula produces the same deterministic counts, which is why merged
counter totals agree between serial runs (shared cache, many replays) and
``--jobs N`` runs (private per-worker caches, more fresh solves).  Time is
not replayed: only a fresh check adds to the ``*_seconds`` metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import (
    EXPLANATION_SIZE_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    PIVOT_BUCKETS,
    current_obs,
)
from repro.smt.result import SolverAnswer

#: ``CheckStats`` counter fields mirrored 1:1 into ``smt.<field>`` counters.
_COUNTER_FIELDS = (
    ("theory_rounds", "theory refinement rounds (final checks + conflicts)"),
    ("sat_conflicts", "CDCL conflicts"),
    ("sat_decisions", "CDCL decisions"),
    ("sat_propagations", "CDCL unit propagations"),
    ("sat_phase_saving_hits", "decisions that reused a saved phase"),
    ("theory_propagations", "theory-implied literals enqueued into the SAT core"),
    ("partial_checks", "rational feasibility checks at partial assignments"),
    ("final_checks", "integer (branch-and-bound) checks at full assignments"),
    ("core_shrink_rounds", "drop-one LIA calls spent minimising conflict cores"),
    ("shrink_budget_hits", "core-shrink rounds truncated by the per-check budget"),
    ("explanations", "theory conflict explanations"),
    ("explanation_literals", "total literals across conflict explanations"),
    ("simplex_pivots", "simplex pivot operations"),
    ("clauses_retained", "clauses a check added to its solver's SAT core, surviving pop()"),
)

#: ``CheckStats`` time fields mirrored into ``smt.<name>`` counters by fresh
#: checks only.
_TIME_FIELDS = (
    ("sat_time", "sat_seconds", "SAT search time of fresh checks"),
    ("theory_time", "theory_seconds", "theory-solver time of fresh checks"),
)


def record_check_metrics(
    answer: SolverAnswer, elapsed: Optional[float], source: str = "oneshot"
) -> None:
    """Emit one check's statistics into the ambient observability context.

    ``elapsed`` is the caller-observed wall time of a fresh check, or
    ``None`` for an answer-cache replay.  A replay re-emits every count and
    observes 0.0 latency, so count columns stay replay-invariant, but adds
    nothing to the time counters.  ``source`` distinguishes one-shot
    checks (the answer-cached front) from incremental ones in the query
    counters.
    """
    obs = current_obs()
    registry = obs.registry
    stats = answer.stats
    registry.counter(f"smt.queries.{source}", help=f"{source} satisfiability checks").inc()
    registry.counter(
        f"smt.result.{answer.result.value}", help="checks by three-valued verdict"
    ).inc()
    registry.histogram(
        "smt.query_seconds",
        LATENCY_BUCKETS_SECONDS,
        help="wall-clock latency per satisfiability check",
        unit="seconds",
    ).observe(elapsed or 0.0)
    for field, help_text in _COUNTER_FIELDS:
        value = getattr(stats, field)
        if value:
            registry.counter(f"smt.{field}", help=help_text).inc(value)
    if elapsed is not None:
        for field, name, help_text in _TIME_FIELDS:
            value = getattr(stats, field)
            if value:
                registry.counter(f"smt.{name}", help=help_text, unit="seconds").inc(value)
    if stats.explanation_sizes:
        histogram = registry.histogram(
            "smt.explanation_size",
            EXPLANATION_SIZE_BUCKETS,
            help="literals per theory conflict explanation",
            unit="literals",
        )
        for size in stats.explanation_sizes:
            histogram.observe(size)
    registry.histogram(
        "smt.pivots_per_check",
        PIVOT_BUCKETS,
        help="simplex pivots per satisfiability check",
        unit="pivots",
    ).observe(stats.simplex_pivots)

    log = obs.events
    if log.enabled:
        log.emit(
            "smt_check",
            source=source,
            engine=stats.engine,
            result=answer.result.value,
            elapsed=elapsed or 0.0,
            conflicts=stats.sat_conflicts,
            theory_propagations=stats.theory_propagations,
            core_shrink_rounds=stats.core_shrink_rounds,
            explanations=stats.explanations,
            simplex_pivots=stats.simplex_pivots,
        )
