"""Batch verification API — the recommended entry point.

Wraps :mod:`repro.core.pipeline` with sessions, the per-function result
cache, and the parallel scheduler.  Each :class:`VerifyJob` is one program
(a source plus optional library sources); :func:`verify_jobs` runs many of
them against a shared :class:`VerifySession` and returns a structured
:class:`ServiceReport` that serialises to JSON for the CLI and for clients.
A session's next job re-parses and re-elaborates only the items that
changed since its last job (:func:`parse_program`, :func:`verify_job`), and
reuses the report row, JSON text included, of every cached function whose
row cannot have changed (:meth:`JobReport.to_json`).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import FluxError
from repro.core.genv import GlobalEnv
from repro.core.pipeline import (
    FunctionResult,
    VerificationResult,
    is_fault_result,
    merge_programs,
)
from repro.lang import LexError, ParseError, ast, parser, split_items
from repro.mir.typeinfer import ProgramTypes
from repro.obs import span as obs_span
from repro.service.cache import KeyTables, function_key
from repro.service.scheduler import TOO_DEEP, verify_functions
from repro.service.session import ItemMemo, VerifySession


@dataclass(frozen=True)
class VerifyJob:
    """One verification request: a program and what to check in it."""

    source: str
    name: str = "job"
    extra_sources: Tuple[str, ...] = ()
    only: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class FunctionReport:
    """Per-function slice of a job report (one row of the JSON output).

    ``diagnostics`` holds the human-readable one-liners; ``failures`` the
    structured records (obligation tag, source span, signature span and the
    counterexample valuation) for tooling.  A row is never changed once
    built: a warm session's next report may hold the same row object.
    """

    name: str
    status: str  # "ok" | "error" | "trusted"
    cached: bool
    time: float
    num_constraints: int
    num_kvars: int
    #: The registry counter delta of the function's verification
    #: (:attr:`repro.core.FunctionResult.metrics`), replayed from the cache
    #: for cached results.
    metrics: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)
    #: Structured failure records (tag, span, sig_span, counterexample) —
    #: the machine-readable face of ``diagnostics``; see
    #: :meth:`repro.core.errors.Diagnostic.to_dict`.
    failures: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "cached": self.cached,
            "time": round(self.time, 6),
            "metrics": {
                name: round(value, 6) if isinstance(value, float) else value
                for name, value in self.metrics.items()
            },
            "num_constraints": self.num_constraints,
            "num_kvars": self.num_kvars,
            "diagnostics": list(self.diagnostics),
            "failures": [dict(failure) for failure in self.failures],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, encoded on the first call only."""
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(self.to_dict())
            object.__setattr__(self, "_json", text)
        return text


@dataclass
class JobReport:
    """Outcome of one :class:`VerifyJob`: verdict, timings, cache traffic
    and per-function reports.  ``result`` keeps the full in-process
    :class:`~repro.core.pipeline.VerificationResult` (not serialised) so
    callers such as ``--explain`` can render rich diagnostics."""

    name: str
    ok: bool
    time: float
    #: The job's ``cache.hits`` and ``cache.misses`` counts in the session
    #: registry.
    cache_hits: int = 0
    cache_misses: int = 0
    functions: List[FunctionReport] = field(default_factory=list)
    error: Optional[str] = None  # parse/merge failure, before any checking
    exception: Optional[Exception] = None  # the original error, not serialised
    result: Optional[VerificationResult] = None  # full result, not serialised

    def to_dict(self) -> Dict[str, object]:
        payload = self._head()
        payload["functions"] = [fn.to_dict() for fn in self.functions]
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, spliced from each row's
        :meth:`FunctionReport.to_json`, so a reused row is not encoded
        again (the text the daemon worker sends)."""
        text = json.dumps(self._head())[:-1]
        text += ', "functions": [' + ", ".join(fn.to_json() for fn in self.functions) + "]"
        if self.error is not None:
            text += ', "error": ' + json.dumps(self.error)
        return text + "}"

    def _head(self) -> Dict[str, object]:
        """The ``to_dict`` keys before ``functions``, in order."""
        return {
            "name": self.name,
            "ok": self.ok,
            "time": round(self.time, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


@dataclass
class ServiceReport:
    """A batch run's aggregate: one :class:`JobReport` per job plus the
    session-wide SMT statistics; ``to_dict`` is the CLI's JSON shape.

    ``metrics`` carries the session's full registry snapshot (all merged
    worker deltas included) — the raw material of ``--stats`` and
    ``--metrics-out``.  It is not part of ``to_dict`` to keep the report
    JSON stable; exporters read it directly.  ``smt`` is a view of it
    (:func:`_smt_summary`).
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


class CachedRow(NamedTuple):
    """A function served from the result cache, as its job reported it.

    Its row depends only on the result :meth:`ResultCache.get` returned
    and, when that result has diagnostics, on the lines they were moved
    by.  So a warm session keeps the last job's (:attr:`ItemMemo.rows`),
    and a job whose lookup returns the same object, moved by the same
    lines if it has diagnostics, reuses ``result`` and ``row``, the row's
    JSON text included.
    """

    #: What the cache returned, spans counted from the ``fn`` line.
    cached: FunctionResult
    #: The lines ``result`` moved its diagnostics by.
    lines: int
    result: FunctionResult
    row: FunctionReport


def _function_status(result: FunctionResult) -> str:
    if result.trusted:
        return "trusted"
    return "ok" if result.ok else "error"


def _report_row(name: str, result: FunctionResult, cached: bool) -> FunctionReport:
    diagnostics = result.diagnostics
    return FunctionReport(
        name=name,
        status=_function_status(result),
        cached=cached,
        time=result.time,
        num_constraints=result.num_constraints,
        num_kvars=result.num_kvars,
        metrics=dict(result.metrics),
        diagnostics=[str(diag) for diag in diagnostics] if diagnostics else [],
        failures=[diag.to_dict() for diag in diagnostics] if diagnostics else [],
    )


def verify_job(job: VerifyJob, session: VerifySession) -> JobReport:
    """Verify one job against a session, using its cache and scheduler.

    Runs with the session's SMT *and* observability contexts installed, so
    every phase below (and everything the scheduler runs serially) records
    into the session's registry, tracer and event log.

    Each function is verified inside the scheduler's fault boundary, so a
    ``RecursionError`` that gets here came from parsing, elaboration, the
    dependency pass or the report; the job then fails with the error
    :data:`TOO_DEEP`, which ``verify_source`` raises as a :class:`FluxError`.
    """
    started = time.perf_counter()
    registry = session.metrics
    hits, misses = registry.value("cache.hits"), registry.value("cache.misses")
    with session.activate():
        try:
            report = _verify_job_active(job, session)
        except RecursionError:
            report = JobReport(
                name=job.name, ok=False, time=time.perf_counter() - started, error=TOO_DEEP
            )
    report.cache_hits = registry.value("cache.hits") - hits
    report.cache_misses = registry.value("cache.misses") - misses
    return report


def parse_program(
    source: str, memo: ItemMemo, extra_sources: Sequence[str] = ()
) -> Tuple[ast.Program, List[int]]:
    """A job's front end: ``extra_sources`` then ``source``, parsed into one
    program, reusing the last job's items (the parse step perfbench times
    as ``lang.parse``).

    Each source is cut into item runs (:func:`repro.lang.split_items`); a
    run whose text the last job also had keeps that job's parse, and any
    other run is parsed alone (:func:`repro.lang.parse_program`).  Returns
    the merged program and, for each of its functions, the lines to add to
    its line numbers (its run's offset in its source).  When a run does
    not lex or parse, the whole source is parsed instead, so an error is
    always the whole source's.
    """
    items: Dict[str, ast.Program] = {}
    programs: List[ast.Program] = []
    offsets: List[int] = []
    known = memo.items
    for text in (*extra_sources, source):
        parsed: List[ast.Program] = []
        lines_before: List[int] = []
        try:
            for lines, piece in split_items(text):
                program = known.get(piece) or items.get(piece) or parser.parse_program(piece)
                items[piece] = program
                parsed.append(program)
                lines_before += [lines] * len(program.functions)
        except (LexError, ParseError, RecursionError):
            parsed = [parser.parse_program(text)]
            lines_before = [0] * len(parsed[0].functions)
        programs += parsed
        offsets += lines_before
    memo.items = items
    return merge_programs(programs), offsets


def _moved(result: FunctionResult, lines: int) -> FunctionResult:
    """``result`` with every diagnostic span ``lines`` lines further down."""
    if not lines or not result.diagnostics:
        return result
    return dataclasses.replace(
        result, diagnostics=[diag.moved(lines) for diag in result.diagnostics]
    )


def _verify_job_active(job: VerifyJob, session: VerifySession) -> JobReport:
    started = time.perf_counter()
    memo = session.memo
    try:
        with obs_span("parse", job=job.name):
            program, offsets = parse_program(job.source, memo, job.extra_sources)
        with obs_span("spec_elaboration", job=job.name):
            genv = GlobalEnv()
            genv.register_program(program, previous=memo.genv)
            rust_context = ProgramTypes.from_program(program, previous=memo.types)
    except (FluxError, ParseError, LexError) as error:
        return JobReport(
            name=job.name,
            ok=False,
            time=time.perf_counter() - started,
            error=str(error),
            exception=error,
        )

    # Split targets into trusted, cache hits, and work for the scheduler.
    # Spans: a function's parse counts lines from its item run's first line
    # (``offsets`` moves them to the source's), and the result cache keeps
    # them counted from the function's ``fn`` line.  Entries are (name,
    # result, row, lines); the scheduler's have no result or row yet.
    ordered: List[Tuple[str, Optional[FunctionResult], Optional[FunctionReport], int]] = []
    keys: Dict[str, str] = {}
    callee_deps: Dict[str, Tuple[str, ...]] = {}
    pending: List[str] = []
    tables = KeyTables(program, genv, previous=memo.tables) if session.cache.enabled else None
    memo.genv, memo.types, memo.tables = genv, rust_context, tables
    last_rows, rows = memo.rows, {}
    only, signatures = job.only, genv.signatures
    for fn, lines in zip(program.functions, offsets):
        name = fn.name
        if only is not None and name not in only:
            continue
        if fn.body is None or signatures[name].trusted:
            result = FunctionResult(name=name, ok=True, trusted=True)
            ordered.append((name, result, _report_row(name, result, False), 0))
            continue
        deps = genv.function_dependencies(fn)
        callee_deps[name] = deps[0]
        cached = None
        if tables is not None:
            # The scheduler still needs ``deps``, but hashing keys is pure
            # overhead when the result cache is off.
            key = function_key(program, fn, genv, deps=deps, tables=tables)
            keys[name] = key
            cached = session.cache.get(key)
        if cached is not None:
            shift = fn.line + lines
            kept = last_rows.get(key)
            if kept is None or kept.cached is not cached or (
                cached.diagnostics and kept.lines != shift
            ):
                result = _moved(cached, shift)
                kept = CachedRow(cached, shift, result, _report_row(name, result, True))
            rows[key] = kept
            ordered.append((name, kept.result, kept.row, 0))
        else:
            ordered.append((name, None, None, lines))
            pending.append(name)
    memo.rows = rows

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
    for name, (result, obs_payload) in fresh.items():
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
            session.cache.put(keys[name], _moved(result, -tables.fn_decls[name].line))

    verification = VerificationResult()
    report = JobReport(name=job.name, ok=True, time=0.0)
    for name, result, row, lines in ordered:
        if result is None:
            result = _moved(fresh[name][0], lines)
            row = _report_row(name, result, False)
        verification.add(result)
        report.functions.append(row)
    verification.time = time.perf_counter() - started
    report.time = verification.time
    report.ok = verification.ok
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
    report.metrics = session.metrics_snapshot()
    report.smt = _smt_summary(report.metrics)
    return report


def _smt_summary(snapshot: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """The report's ``"smt"`` block, read off a registry snapshot.

    ``total_time`` is the ``smt.query_seconds`` sum: each fresh check's
    search, one-shot and incremental alike (a formula is encoded before its
    check, outside that timer).
    """

    def value(name: str) -> float:
        return snapshot.get(name, {}).get("value", 0)

    incremental = value("smt.queries.incremental")
    return {
        "queries": value("smt.queries.oneshot") + incremental,
        "valid": value("smt.result.unsat"),
        "invalid": value("smt.result.sat"),
        "unknown": value("smt.result.unknown"),
        "quantifier_instantiations": value("smt.quantifier_instantiations"),
        "total_time": snapshot.get("smt.query_seconds", {}).get("sum", 0.0),
        "incremental_checks": incremental,
    }


def verify_source(
    source: str,
    only: Optional[Sequence[str]] = None,
    extra_sources: Sequence[str] = (),
    session: Optional[VerifySession] = None,
) -> VerificationResult:
    """Verify one program and return its :class:`VerificationResult`.

    ``extra_sources`` provides library code (e.g. the RMat implementation)
    whose signatures should be in scope; library functions are verified too
    unless marked ``#[flux::trusted]``.  Without a ``session`` the call runs
    in a fresh one; pass ``VerifySession(use_cache=False)`` for a run that
    neither reads nor fills the result cache.  A parse or elaboration
    failure raises its original error (:class:`ParseError`,
    :class:`FluxError`, ...).
    """
    session = session or VerifySession()
    job = VerifyJob(
        source=source,
        extra_sources=tuple(extra_sources),
        only=tuple(only) if only is not None else None,
    )
    report = verify_job(job, session)
    if report.error is not None:
        # Re-raise the original error: ParseError stays ParseError.
        if report.exception is not None:
            raise report.exception
        raise FluxError(report.error)
    assert report.result is not None
    return report.result
