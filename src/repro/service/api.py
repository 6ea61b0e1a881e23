"""Batch verification API — the recommended entry point.

Wraps :mod:`repro.core.pipeline` with sessions, the per-function result
cache, and the parallel scheduler.  Each :class:`VerifyJob` is one program
(a source plus optional library sources); :func:`verify_jobs` runs many of
them against a shared :class:`VerifySession` and returns a structured
:class:`ServiceReport` that serialises to JSON for the CLI and for clients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import FluxError
from repro.core.genv import GlobalEnv
from repro.core.pipeline import (
    FUNCTION_METRIC_KEYS,
    FunctionResult,
    VerificationResult,
    is_fault_result,
    merge_programs,
)
from repro.lang import LexError, ParseError, parse_program
from repro.mir.typeinfer import ProgramTypes
from repro.obs import span as obs_span
from repro.service.cache import KeyTables, function_key
from repro.service.scheduler import verify_functions
from repro.service.session import VerifySession


@dataclass(frozen=True)
class VerifyJob:
    """One verification request: a program and what to check in it."""

    source: str
    name: str = "job"
    extra_sources: Tuple[str, ...] = ()
    only: Optional[Tuple[str, ...]] = None


@dataclass
class FunctionReport:
    """Per-function slice of a job report (one row of the JSON output).

    ``diagnostics`` holds the human-readable one-liners; ``failures`` the
    structured records (obligation tag, source span, signature span and the
    counterexample valuation) for tooling.
    """

    name: str
    status: str  # "ok" | "error" | "trusted"
    cached: bool
    time: float
    num_constraints: int
    num_kvars: int
    #: Per-function solver metrics, keyed by :data:`FUNCTION_METRIC_KEYS` —
    #: a thin view over the registry delta the function's verification
    #: produced.  ``report.smt_queries`` etc. remain readable through the
    #: attribute aliases installed after the class definition.
    metrics: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)
    #: Structured failure records (tag, span, sig_span, counterexample) —
    #: the machine-readable face of ``diagnostics``; see
    #: :meth:`repro.core.errors.Diagnostic.to_dict`.
    failures: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "status": self.status,
            "cached": self.cached,
            "time": round(self.time, 6),
        }
        for key in FUNCTION_METRIC_KEYS:
            value = self.metrics.get(key, 0)
            payload[key] = round(value, 6) if isinstance(value, float) else value
        payload.update(
            {
                "num_constraints": self.num_constraints,
                "num_kvars": self.num_kvars,
                "diagnostics": list(self.diagnostics),
                "failures": [dict(failure) for failure in self.failures],
            }
        )
        return payload


def _report_metric_alias(key: str) -> property:
    return property(lambda self: self.metrics.get(key, 0))


for _key in FUNCTION_METRIC_KEYS:
    setattr(FunctionReport, _key, _report_metric_alias(_key))
del _key


@dataclass
class JobReport:
    """Outcome of one :class:`VerifyJob`: verdict, timings, cache traffic
    and per-function reports.  ``result`` keeps the full in-process
    :class:`~repro.core.pipeline.VerificationResult` (not serialised) so
    callers such as ``--explain`` can render rich diagnostics."""

    name: str
    ok: bool
    time: float
    cache_hits: int
    cache_misses: int
    functions: List[FunctionReport] = field(default_factory=list)
    error: Optional[str] = None  # parse/merge failure, before any checking
    exception: Optional[Exception] = None  # the original error, not serialised
    result: Optional[VerificationResult] = None  # full result, not serialised

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "ok": self.ok,
            "time": round(self.time, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "functions": [fn.to_dict() for fn in self.functions],
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


@dataclass
class ServiceReport:
    """A batch run's aggregate: one :class:`JobReport` per job plus the
    session-wide SMT statistics; ``to_dict`` is the CLI's JSON shape.

    ``metrics`` carries the session's full registry snapshot (all merged
    worker deltas included) — the raw material of ``--stats`` and
    ``--metrics-out``.  It is not part of ``to_dict`` to keep the report
    JSON stable; exporters read it directly.
    """

    jobs: List[JobReport] = field(default_factory=list)
    time: float = 0.0
    smt: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(job.ok for job in self.jobs)

    @property
    def cache_hits(self) -> int:
        return sum(job.cache_hits for job in self.jobs)

    @property
    def cache_misses(self) -> int:
        return sum(job.cache_misses for job in self.jobs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "time": round(self.time, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "smt": self.smt,
            "jobs": [job.to_dict() for job in self.jobs],
        }


def _function_status(result: FunctionResult) -> str:
    if result.trusted:
        return "trusted"
    return "ok" if result.ok else "error"


def verify_job(job: VerifyJob, session: VerifySession) -> JobReport:
    """Verify one job against a session, using its cache and scheduler.

    Runs with the session's SMT *and* observability contexts installed, so
    every phase below (and everything the scheduler runs serially) records
    into the session's registry, tracer and event log.
    """
    with session.activate():
        return _verify_job_active(job, session)


def _verify_job_active(job: VerifyJob, session: VerifySession) -> JobReport:
    started = time.perf_counter()
    hits_before = session.cache.hits
    misses_before = session.cache.misses
    try:
        with obs_span("parse", job=job.name):
            program = merge_programs(
                [parse_program(text) for text in (*job.extra_sources, job.source)]
            )
        with obs_span("spec_elaboration", job=job.name):
            genv = GlobalEnv()
            genv.register_program(program)
            rust_context = ProgramTypes.from_program(program)
    except (FluxError, ParseError, LexError) as error:
        return JobReport(
            name=job.name,
            ok=False,
            time=time.perf_counter() - started,
            cache_hits=0,
            cache_misses=0,
            error=str(error),
            exception=error,
        )

    # Split targets into trusted, cache hits, and work for the scheduler.
    ordered: List[Tuple[str, Optional[FunctionResult], bool]] = []  # (name, result, cached)
    keys: Dict[str, str] = {}
    callee_deps: Dict[str, Tuple[str, ...]] = {}
    pending: List[str] = []
    tables = KeyTables(program, genv) if session.cache.enabled else None
    for fn in program.functions:
        if job.only is not None and fn.name not in job.only:
            continue
        signature = genv.signature(fn.name)
        if signature.trusted or fn.body is None:
            ordered.append((fn.name, FunctionResult(name=fn.name, ok=True, trusted=True), False))
            continue
        deps = genv.function_dependencies(fn)
        callee_deps[fn.name] = deps[0]
        cached = None
        if tables is not None:
            # The scheduler still needs ``deps``, but hashing keys is pure
            # overhead when the result cache is off.
            key = function_key(program, fn, genv, deps=deps, tables=tables)
            keys[fn.name] = key
            cached = session.cache.get(key)
        if cached is not None:
            ordered.append((fn.name, cached, True))
        else:
            ordered.append((fn.name, None, False))
            pending.append(fn.name)

    fresh = verify_functions(
        program,
        pending,
        genv,
        rust_context,
        session.smt,
        jobs=session.jobs,
        deps=callee_deps,
        fns=tables.fn_decls if tables is not None else None,
        trace=session.obs.tracer.enabled,
        events=session.obs.events.enabled,
        fn_deadline=session.fn_deadline,
        memory_limit_mb=session.memory_limit_mb,
    )
    for name, (result, worker_stats, obs_payload) in fresh.items():
        if worker_stats is not None:
            session.smt.stats.merge(worker_stats)
        if obs_payload is not None:
            # Fold the worker's observability delta into the session:
            # counters add, spans and events keep their worker pid/tid, so
            # the exported trace shows the real process interleaving.
            session.obs.registry.merge(obs_payload["metrics"])
            session.obs.tracer.absorb(obs_payload["trace"])
            session.obs.events.absorb(obs_payload["events"])
        if name in keys and not is_fault_result(result):
            # Fault verdicts (crash/deadline/memory) describe the run, not
            # the program: caching one would pin a transient failure.
            session.cache.put(keys[name], result)

    verification = VerificationResult()
    report = JobReport(name=job.name, ok=True, time=0.0, cache_hits=0, cache_misses=0)
    for name, result, cached in ordered:
        if result is None:
            result = fresh[name][0]
        verification.add(result)
        report.functions.append(
            FunctionReport(
                name=name,
                status=_function_status(result),
                cached=cached,
                time=result.time,
                num_constraints=result.num_constraints,
                num_kvars=result.num_kvars,
                metrics=dict(result.metrics),
                diagnostics=[str(diag) for diag in result.diagnostics],
                failures=[diag.to_dict() for diag in result.diagnostics],
            )
        )
    verification.time = time.perf_counter() - started
    report.time = verification.time
    report.ok = verification.ok
    report.cache_hits = session.cache.hits - hits_before
    report.cache_misses = session.cache.misses - misses_before
    report.result = verification
    return report


def verify_jobs(
    jobs: Sequence[VerifyJob], session: Optional[VerifySession] = None
) -> ServiceReport:
    """Verify a batch of jobs, sharing one session (and so one cache)."""
    session = session or VerifySession()
    started = time.perf_counter()
    report = ServiceReport()
    for job in jobs:
        report.jobs.append(verify_job(job, session))
    report.time = time.perf_counter() - started
    report.smt = session.stats.to_dict()
    report.metrics = session.metrics_snapshot()
    return report


def verify_source(
    source: str,
    only: Optional[Sequence[str]] = None,
    extra_sources: Sequence[str] = (),
    session: Optional[VerifySession] = None,
) -> VerificationResult:
    """Drop-in, cached replacement for :func:`repro.core.verify_source`
    (same parameter order, plus the optional ``session``)."""
    session = session or VerifySession()
    job = VerifyJob(
        source=source,
        extra_sources=tuple(extra_sources),
        only=tuple(only) if only is not None else None,
    )
    report = verify_job(job, session)
    if report.error is not None:
        # Re-raise the original error so the exception contract matches
        # ``repro.core.verify_source`` (ParseError stays ParseError).
        if report.exception is not None:
            raise report.exception
        raise FluxError(report.error)
    assert report.result is not None
    return report.result
