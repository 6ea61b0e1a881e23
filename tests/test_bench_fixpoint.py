"""The fixpoint benchmark: its regression gate and the path it measures.

``scripts/bench_fixpoint.py::compare`` is what CI's benchmark lane gates
on; the parity test pins that the Table-1 harness
(``BenchmarkCase.run_flux``), ``BENCH_fixpoint.json``
(``run_program_metrics``) and the service that ``python -m repro`` and
perfbench enter (``verify_job``) verify through one path.
"""

import importlib.util
from pathlib import Path

from repro.bench.fixpoint_bench import run_program_metrics, table1_programs
from repro.bench.suite import all_benchmarks
from repro.service import VerifyJob, VerifySession, verify_job

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_fixpoint.py"
_spec = importlib.util.spec_from_file_location("bench_fixpoint", SCRIPT)
bench_fixpoint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fixpoint)

FLOOR = bench_fixpoint.ELAPSED_FLOOR_SECONDS


def _run(elapsed, smt_queries=100, from_scratch_solves=10):
    return {
        "elapsed": elapsed,
        "smt_queries": smt_queries,
        "from_scratch_solves": from_scratch_solves,
    }


def _compare(current, baseline):
    return bench_fixpoint.compare(current, baseline, tolerance=0.25, time_tolerance=0.05)


class TestCompare:
    def test_time_regression_above_the_tolerance_fails(self):
        regressions = _compare({"p": _run(2.12)}, {"p": _run(2.0)})
        assert len(regressions) == 1
        assert regressions[0].startswith("p: elapsed regressed")

    def test_time_regression_within_the_tolerance_passes(self):
        assert _compare({"p": _run(2.09)}, {"p": _run(2.0)}) == []

    def test_programs_under_the_floor_are_gated_on_counts_only(self):
        base = FLOOR / 2
        assert _compare({"p": _run(base * 10)}, {"p": _run(base)}) == []
        regressions = _compare({"p": _run(base, smt_queries=200)}, {"p": _run(base)})
        assert regressions == ["p: smt_queries regressed 100.000 -> 200.000 (>25%)"]

    def test_a_count_growing_from_a_zero_baseline_fails(self):
        regressions = _compare(
            {"p": _run(1.0, from_scratch_solves=1)}, {"p": _run(1.0, from_scratch_solves=0)}
        )
        assert regressions == ["p: from_scratch_solves regressed 0 -> 1"]

    def test_a_program_that_ran_in_the_baseline_and_now_errors_fails(self):
        current = {"p": {"error": "ParseError: boom", "elapsed": 0.01}}
        regressions = _compare(current, {"p": _run(1.0)})
        assert regressions == ["p: previously ran, now fails: ParseError: boom"]


def test_table1_harness_and_fixpoint_bench_run_the_service_path():
    program = table1_programs(["rmat"])[0]
    case = next(case for case in all_benchmarks() if case.name == "rmat")
    reference = VerifySession(use_cache=False)
    report = verify_job(
        VerifyJob(source=program.flux_source, only=tuple(program.flux_functions)), reference
    )
    failures = sorted(diag for fn in report.functions for diag in fn.diagnostics)
    queries = reference.metrics.value("fixpoint.smt_queries")
    assert queries > 0

    harness = VerifySession(use_cache=False)
    side = case.run_flux(harness)
    assert side.verified == report.ok
    assert sorted(side.failures) == failures
    assert harness.metrics.value("fixpoint.smt_queries") == queries

    metrics = run_program_metrics(program)
    assert metrics["verified"] == report.ok
    assert metrics["failures"] == failures
    assert metrics["smt_queries"] == queries
