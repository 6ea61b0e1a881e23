"""Benchmark suite driver: run Flux and the Prusti-style baseline and collect
the metrics Table 1 reports (LOC, Spec, Annot, Time)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.programs import BenchmarkProgram, benchmark_programs
from repro.core import verify_source
from repro.prusti import verify_source_prusti


@dataclass
class SideMetrics:
    """Metrics for one verifier on one benchmark."""

    loc: int = 0
    spec_lines: int = 0
    annot_lines: int = 0
    time: float = 0.0
    verified: bool = False
    failures: Tuple[str, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    smt_queries: int = 0
    from_scratch_solves: int = 0
    assumption_checks: int = 0
    incremental_hits: int = 0
    clauses_retained: int = 0
    # -- online DPLL(T) engine observability (per run) ----------------------
    batched_checks: int = 0
    theory_propagations: int = 0
    partial_checks: int = 0
    core_shrink_rounds: int = 0
    explanations: int = 0
    explanation_literals: int = 0
    avg_explanation_len: float = 0.0
    sat_time: float = 0.0
    theory_time: float = 0.0
    # -- SAT-core heuristics observability (per run) ------------------------
    shrink_budget_hits: int = 0
    phase_saving_hits: int = 0
    # -- term-layer / arithmetic fast-path observability (per run) ----------
    intern_table_size: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    subst_cache_hits: int = 0
    subst_cache_misses: int = 0
    simplify_cache_hits: int = 0
    simplify_cache_misses: int = 0
    int_atoms: int = 0
    fraction_atoms: int = 0
    int_divisions: int = 0
    fraction_divisions: int = 0


@dataclass
class BenchmarkCase:
    program: BenchmarkProgram

    @property
    def name(self) -> str:
        return self.program.name

    # -- static metrics ---------------------------------------------------------

    @staticmethod
    def _code_lines(source: str) -> int:
        count = 0
        for raw in source.splitlines():
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            if line.startswith("#["):
                continue
            if line.startswith("body_invariant!"):
                continue
            count += 1
        return count

    @staticmethod
    def _attr_lines(source: str, prefixes: Tuple[str, ...]) -> int:
        return sum(
            1
            for raw in source.splitlines()
            if raw.strip().startswith(prefixes)
        )

    @staticmethod
    def _invariant_lines(source: str) -> int:
        return sum(
            1 for raw in source.splitlines() if raw.strip().startswith("body_invariant!")
        )

    # -- running ------------------------------------------------------------------

    def run_flux(self, session: Optional["VerifySession"] = None) -> SideMetrics:
        """Run the Flux side; with a ``session``, go through ``repro.service``
        so repeated runs hit the per-function result cache and the metrics
        report hit/miss counts."""
        from repro.bench.fixpoint_bench import (
            dplt_metric_sums,
            side_metric_deltas,
            term_metric_snapshot,
        )

        before = term_metric_snapshot()
        started = time.perf_counter()
        cache_hits = cache_misses = 0
        if session is not None:
            from repro.service import VerifyJob, verify_job

            report = verify_job(
                VerifyJob(
                    source=self.program.flux_source,
                    name=self.name,
                    only=tuple(self.program.flux_functions),
                ),
                session,
            )
            if report.error is not None:
                from repro.core import FluxError

                # Same exception type as the session-less path would raise.
                if report.exception is not None:
                    raise report.exception
                raise FluxError(report.error)
            result = report.result
            cache_hits, cache_misses = report.cache_hits, report.cache_misses
        else:
            result = verify_source(
                self.program.flux_source, only=self.program.flux_functions
            )
        elapsed = time.perf_counter() - started
        failures = tuple(str(d) for d in result.diagnostics)
        return SideMetrics(
            **side_metric_deltas(before),
            loc=self._code_lines(self.program.flux_source),
            spec_lines=self._attr_lines(self.program.flux_source, ("#[flux::",)),
            annot_lines=0,  # Flux needs no loop invariants: they are inferred
            time=elapsed,
            verified=result.ok,
            failures=failures,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            smt_queries=sum(fn.smt_queries for fn in result.functions),
            from_scratch_solves=sum(fn.smt_from_scratch for fn in result.functions),
            assumption_checks=sum(fn.smt_assumption_checks for fn in result.functions),
            incremental_hits=sum(fn.smt_incremental_hits for fn in result.functions),
            clauses_retained=sum(fn.smt_clauses_retained for fn in result.functions),
            **dplt_metric_sums(result.functions),
        )

    def run_prusti_static(self, note: str) -> SideMetrics:
        """Static (source-derived) Prusti metrics without running the verifier.

        Used for benchmarks whose baseline verification is skipped (e.g. the
        kmp quantifier-instantiation blowup): LOC/Spec/Annot come straight
        from the source so Table 1's size columns stay complete, while
        ``verified`` stays ``False`` and ``failures`` records why the run
        was skipped.
        """
        return SideMetrics(
            loc=self._code_lines(self.program.prusti_source),
            spec_lines=self._attr_lines(
                self.program.prusti_source, ("#[requires", "#[ensures")
            ),
            annot_lines=self._invariant_lines(self.program.prusti_source),
            time=0.0,
            verified=False,
            failures=(f"skipped: {note}",),
        )

    def run_prusti(self) -> SideMetrics:
        started = time.perf_counter()
        result = verify_source_prusti(
            self.program.prusti_source, only=self.program.prusti_functions
        )
        elapsed = time.perf_counter() - started
        failures = tuple(
            f"{fn.name}: {tag}" for fn in result.functions for tag in fn.failed
        )
        return SideMetrics(
            loc=self._code_lines(self.program.prusti_source),
            spec_lines=self._attr_lines(self.program.prusti_source, ("#[requires", "#[ensures")),
            annot_lines=self._invariant_lines(self.program.prusti_source),
            time=elapsed,
            verified=result.ok,
            failures=failures,
        )


def all_benchmarks() -> List[BenchmarkCase]:
    """Every benchmark row of Table 1 (library RMat first, then the programs)."""
    return [BenchmarkCase(program) for program in benchmark_programs()]


def library_cases() -> List[BenchmarkCase]:
    return [case for case in all_benchmarks() if case.name == "rmat"]


def benchmark_cases() -> List[BenchmarkCase]:
    return [case for case in all_benchmarks() if case.name != "rmat"]
