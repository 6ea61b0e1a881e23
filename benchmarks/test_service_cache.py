"""Acceptance benchmark: warm service runs are near-free.

Re-verifying an unchanged multi-function program through ``repro.service``
must be at least 5x faster than the cold run, with every function served
from the per-function result cache and zero additional SMT queries.
"""

import time

from repro.bench.programs import benchmark_programs
from repro.service import VerifyJob, VerifySession, verify_job


def _queries(session):
    """SMT checks the session has run, one-shot plus incremental."""
    registry = session.metrics
    return registry.value("smt.queries.oneshot") + registry.value("smt.queries.incremental")


def test_warm_reverification_is_at_least_5x_faster():
    program = next(p for p in benchmark_programs() if p.name == "rmat")
    job = VerifyJob(
        source=program.flux_source,
        name=program.name,
        only=tuple(program.flux_functions),
    )
    session = VerifySession()

    started = time.perf_counter()
    cold = verify_job(job, session)
    cold_time = time.perf_counter() - started
    assert cold.cache_misses > 0
    queries_after_cold = _queries(session)

    started = time.perf_counter()
    warm = verify_job(job, session)
    warm_time = time.perf_counter() - started

    assert warm.cache_hits == cold.cache_misses and warm.cache_misses == 0
    assert _queries(session) == queries_after_cold, "warm run must not hit the solver"
    assert warm.ok == cold.ok
    assert cold_time >= 5 * warm_time, (
        f"expected >=5x speedup, got cold={cold_time:.3f}s warm={warm_time:.3f}s"
    )
