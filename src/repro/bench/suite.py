"""Benchmark suite driver: run Flux and the Prusti-style baseline and collect
the metrics Table 1 reports (LOC, Spec, Annot, Time)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bench.programs import BenchmarkProgram, benchmark_programs
from repro.prusti import verify_source_prusti
from repro.service import VerifySession, verify_source


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

    def run_flux(self, session: Optional[VerifySession] = None) -> SideMetrics:
        """Run the Flux side through :mod:`repro.service`, by default in a
        fresh ``VerifySession(use_cache=False)``: a cold run.  Pass a
        ``session`` to reuse its per-function result cache; the metrics then
        report this run's hit/miss counts.  Solver counters live in the
        session's metrics registry;
        ``repro.bench.fixpoint_bench.run_program_metrics`` reports them."""
        session = session or VerifySession(use_cache=False)
        registry = session.metrics
        hits, misses = registry.value("cache.hits"), registry.value("cache.misses")
        started = time.perf_counter()
        result = verify_source(
            self.program.flux_source, only=self.program.flux_functions, session=session
        )
        elapsed = time.perf_counter() - started
        failures = tuple(str(d) for d in result.diagnostics)
        return SideMetrics(
            loc=self._code_lines(self.program.flux_source),
            spec_lines=self._attr_lines(self.program.flux_source, ("#[flux::",)),
            annot_lines=0,  # Flux needs no loop invariants: they are inferred
            time=elapsed,
            verified=result.ok,
            failures=failures,
            cache_hits=registry.value("cache.hits") - hits,
            cache_misses=registry.value("cache.misses") - misses,
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
