"""Command-line front end: ``python -m repro [files...]``.

Each positional file is one verification job; ``--lib`` files are parsed
into every job as library code (their functions are verified too unless
marked ``#[flux::trusted]``).  The report is JSON on stdout; the exit code
is 0 iff every job verified.

Examples
--------
::

    python -m repro program.rs
    python -m repro --jobs 4 --cache-dir .flux-cache a.rs b.rs
    python -m repro --only main,loop_body --no-cache program.rs
    python -m repro --explain broken.rs
    python -m repro --jobs 2 --trace-out trace.json --metrics-out metrics.prom a.rs
    python -m repro --stats program.rs
    echo 'fn main() {}' | python -m repro -
    python -m repro serve --port 7341 --cache-dir /var/cache/repro
    python -m repro --server http://127.0.0.1:7341 program.rs
    python -m repro fuzz --seed 0 --budget 200

``fuzz`` runs the generative differential stress harness: seeded synthetic
crates verified under several pipeline configurations that must agree (see
``docs/fuzzing.md``).

``serve`` starts the persistent verification daemon (warm solver state,
job queue, ``/metrics``; see ``docs/daemon.md``).  ``--server URL`` makes
the CLI a thin client of a running daemon and **falls back to in-process
verification** when no daemon answers, so scripts can opportunistically
use a warm daemon without depending on one.

``--explain`` switches the output to rustc-style caret snippets: each
failed obligation points at the offending source expression, names the
``#[flux::sig]`` clause that imposed it, and prints the concrete
counterexample valuation the solver found (see ``docs/diagnostics.md``).

Observability (see ``docs/observability.md``): ``--trace-out`` writes a
Chrome trace-event JSON (load it at https://ui.perfetto.dev) with spans
from this process and every ``--jobs`` worker; ``--metrics-out`` writes the
session's metrics registry in Prometheus text format; ``--events-out``
writes the structured solver event log; ``--stats`` prints the registry as
a human-readable table instead of the JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.obs import to_prometheus
from repro.obs.report import render_snapshot
from repro.service.api import VerifyJob, verify_jobs
from repro.service.session import VerifySession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Incremental, parallel Flux verification service.",
    )
    parser.add_argument(
        "sources",
        nargs="+",
        metavar="FILE",
        help="MiniRust source files to verify (one job each); '-' reads stdin",
    )
    parser.add_argument(
        "--lib",
        action="append",
        default=[],
        metavar="FILE",
        help="library source in scope for every job (repeatable)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="verify up to N functions concurrently (default: 1, serial)",
    )
    parser.add_argument(
        "--fn-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-function wall-clock budget; overruns degrade to a "
        "structured deadline-exceeded verdict instead of stalling the run",
    )
    parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help="address-space ceiling per --jobs worker process; allocation "
        "failure degrades to a resource-exhausted verdict",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist per-function results as JSON under DIR",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-function result cache",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help="comma-separated function names to verify (default: all)",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print a human-readable summary instead of JSON",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print rustc-style caret snippets with counterexamples for "
        "every failed obligation instead of JSON",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the metrics registry as a human-readable table "
        "instead of JSON",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a Chrome trace-event JSON "
        "(Perfetto-loadable, includes worker processes) to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the session's metrics in Prometheus text format to PATH",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="enable the structured solver event log and write it as JSON "
        "to PATH",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="verify through a running daemon (python -m repro serve) at "
        "URL; falls back to in-process verification when unreachable",
    )
    parser.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="tenant name for daemon quota accounting (with --server)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Start the persistent verification daemon "
        "(warm solver state, job queue, Prometheus /metrics; "
        "see docs/daemon.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7341, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent verification jobs (default: 1)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max waiting jobs before submissions get HTTP 503 (default: 64)",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=8,
        metavar="N",
        help="max active jobs per tenant, 0 = unlimited (default: 8)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="per-job verification budget, 0 = unbounded (default: 120)",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=1,
        metavar="N",
        help="crash retries per job before WORKER_CRASHED (default: 1)",
    )
    parser.add_argument(
        "--fn-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-function wall-clock deadline inside each job",
    )
    parser.add_argument(
        "--memory-limit",
        type=int,
        default=None,
        metavar="MB",
        help="address-space ceiling per worker subprocess, in MiB",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="graceful-shutdown drain budget (default: 60)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist the function-result cache under DIR (survives restarts)",
    )
    parser.add_argument(
        "--session-jobs",
        type=int,
        default=1,
        metavar="N",
        help="per-job scheduler parallelism inside the warm session",
    )
    parser.add_argument(
        "--retention",
        type=int,
        default=512,
        metavar="N",
        help="finished job records kept for GET /jobs/<id> (default: 512)",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro serve`` — run the daemon until SIGINT/SIGTERM."""
    args = build_serve_parser().parse_args(argv)
    from repro.daemon.server import DaemonConfig, run_daemon

    config = DaemonConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        job_timeout=args.job_timeout if args.job_timeout > 0 else None,
        job_retries=args.job_retries,
        drain_timeout=args.drain_timeout if args.drain_timeout > 0 else None,
        cache_dir=args.cache_dir,
        session_jobs=args.session_jobs,
        fn_deadline=args.fn_deadline,
        memory_limit_mb=args.memory_limit,
        retention=args.retention,
    )
    print(
        f"repro daemon listening on http://{config.host}:{config.port} "
        f"(workers={config.workers}, queue_limit={config.queue_limit}, "
        f"tenant_quota={config.tenant_quota})",
        file=sys.stderr,
    )
    run_daemon(config)
    return 0


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _run_via_server(args, jobs: List[VerifyJob]) -> int:
    """Thin-client mode: post every job to the daemon and render its reports.

    Raises :class:`repro.daemon.client.DaemonUnavailable` (caught by
    ``main`` for the in-process fallback) when no daemon answers.
    """
    import time as _time

    from repro.daemon import client

    started = _time.perf_counter()
    job_dicts: List[dict] = []
    ok = True
    for job in jobs:
        record = client.verify(
            args.server,
            job.source,
            name=job.name,
            extra_sources=job.extra_sources,
            only=job.only,
            tenant=args.tenant,
        )
        if record.get("state") == "failed":
            error = record.get("error", {})
            job_dicts.append(
                {
                    "name": job.name,
                    "ok": False,
                    "time": record.get("elapsed", 0.0),
                    "cache_hits": 0,
                    "cache_misses": 0,
                    "functions": [],
                    "error": f"{error.get('kind', 'INTERNAL')}: "
                    f"{error.get('message', 'daemon job failed')}",
                }
            )
            ok = False
        else:
            report = record["report"]
            job_dicts.append(report)
            ok = ok and bool(report.get("ok"))
    payload = {
        "ok": ok,
        "time": round(_time.perf_counter() - started, 6),
        "server": args.server,
        "jobs": job_dicts,
    }
    if args.summary:
        for job in job_dicts:
            status = "ok" if job.get("ok") else "FAILED"
            print(f"{job['name']}: {status} ({job.get('cache_hits', 0)} cached, "
                  f"{job.get('time', 0.0):.2f}s)")
            if job.get("error"):
                print(f"  error: {job['error']}")
            for fn in job.get("functions", ()):
                marker = "*" if fn.get("cached") else " "
                print(f"  {marker} {fn['name']:32s} {fn['status']:8s} "
                      f"{fn.get('time', 0.0):6.3f}s")
                for diagnostic in fn.get("diagnostics", ()):
                    print(f"      {diagnostic}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.  Ctrl-C exits 130 with workers torn down, not a
    traceback: the scheduler kills its pool on KeyboardInterrupt before
    re-raising, so nothing is orphaned."""
    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _dispatch(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    if argv and argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    only = tuple(name.strip() for name in args.only.split(",")) if args.only else None
    try:
        libs = tuple(_read_source(path) for path in args.lib)
        jobs: List[VerifyJob] = []
        for path in args.sources:
            name = "<stdin>" if path == "-" else os.path.basename(path)
            jobs.append(
                VerifyJob(source=_read_source(path), name=name, extra_sources=libs, only=only)
            )
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.server:
        from repro.daemon.client import DaemonError, DaemonUnavailable

        local_only = [
            flag
            for flag, value in (
                ("--explain", args.explain),
                ("--stats", args.stats),
                ("--trace-out", args.trace_out),
                ("--metrics-out", args.metrics_out),
                ("--events-out", args.events_out),
                ("--fn-deadline", args.fn_deadline),
                ("--memory-limit", args.memory_limit),
            )
            if value
        ]
        if local_only:
            print(
                f"warning: {', '.join(local_only)} need in-process state; "
                "ignoring --server and verifying locally",
                file=sys.stderr,
            )
        else:
            try:
                return _run_via_server(args, jobs)
            except DaemonUnavailable as error:
                print(
                    f"warning: {error}; falling back to in-process verification",
                    file=sys.stderr,
                )
            except DaemonError as error:
                # Includes slow-daemon TIMEOUTs: the job may still be
                # running server-side, so re-verifying in-process here
                # would duplicate work — surface the error instead.
                print(f"error: daemon request failed — {error}", file=sys.stderr)
                return 2

    session = VerifySession(
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        jobs=args.jobs,
        trace=args.trace_out is not None,
        events=args.events_out is not None,
        fn_deadline=args.fn_deadline,
        memory_limit_mb=args.memory_limit,
    )
    report = verify_jobs(jobs, session)

    try:
        if args.trace_out:
            session.obs.tracer.export(args.trace_out)
        if args.events_out:
            session.obs.events.export(args.events_out)
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(to_prometheus(report.metrics))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.explain:
        from repro.diagnostics import render_result

        for job, verify in zip(report.jobs, jobs):
            if job.error:
                print(f"{job.name}: error: {job.error}")
                continue
            if job.result is None:
                continue
            rendered = render_result(job.result, verify.source, job.name)
            if rendered:
                print(rendered)
            else:
                print(f"{job.name}: ok ({len(job.functions)} functions)")
    elif args.summary:
        for job in report.jobs:
            status = "ok" if job.ok else "FAILED"
            print(f"{job.name}: {status} ({job.cache_hits} cached, {job.time:.2f}s)")
            if job.error:
                print(f"  error: {job.error}")
            for fn in job.functions:
                marker = "*" if fn.cached else " "
                print(f"  {marker} {fn.name:32s} {fn.status:8s} {fn.time:6.3f}s")
                for diagnostic in fn.diagnostics:
                    print(f"      {diagnostic}")
    elif args.stats:
        print(render_snapshot(report.metrics, title="session metrics"))
    else:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
