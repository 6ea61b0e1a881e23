"""Bridge from per-check solver statistics to the observability layer.

Every satisfiability check — one-shot (``repro.smt.check_sat``) or
incremental (:meth:`repro.smt.IncrementalSolver._check`) — funnels its typed
:class:`~repro.smt.result.CheckStats` through :func:`record_check_metrics`,
which increments the current :class:`repro.obs.MetricsRegistry` and, when
the structured event log is on, appends one ``smt_check`` record.

Determinism contract: the record rides on the answer, so answer-cache
replays re-emit the original check's counts.  A fresh one-shot solve of the
same formula produces the same deterministic counts, which is why merged
counter totals agree between serial runs (shared cache, many replays) and
``--jobs N`` runs (private per-worker caches, more fresh solves).
"""

from __future__ import annotations

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
    ("core_shrink_rounds", "drop-one LIA calls spent minimising conflict cores"),
    ("shrink_budget_hits", "core-shrink rounds truncated by the per-check budget"),
    ("explanations", "theory conflict explanations"),
    ("explanation_literals", "total literals across conflict explanations"),
    ("simplex_pivots", "simplex pivot operations"),
)


def record_check_metrics(
    answer: SolverAnswer, elapsed: float, source: str = "oneshot"
) -> None:
    """Emit one check's statistics into the ambient observability context.

    ``elapsed`` is the caller-observed wall time (0.0 for cache replays, so
    the latency histogram reflects work actually done while every count
    column stays replay-invariant).  ``source`` distinguishes the one-shot
    pipeline from the incremental backend in the query counters.
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
    ).observe(elapsed)
    for field, help_text in _COUNTER_FIELDS:
        value = getattr(stats, field)
        if value:
            registry.counter(f"smt.{field}", help=help_text).inc(value)
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
            elapsed=elapsed,
            conflicts=stats.sat_conflicts,
            theory_propagations=stats.theory_propagations,
            core_shrink_rounds=stats.core_shrink_rounds,
            explanations=stats.explanations,
            simplex_pivots=stats.simplex_pivots,
        )
