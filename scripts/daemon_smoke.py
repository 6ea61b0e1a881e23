#!/usr/bin/env python
"""Daemon smoke test: warm-vs-cold speedup and verdict equivalence.

Drives a real in-process daemon over HTTP end to end:

1. verifies every Table-1 program both in-process (fresh session) and
   through the daemon, asserting **byte-identical canonical verdicts**
   (status, constraint counts, diagnostics, structured failures — times
   and cache traffic excluded);
2. measures a **cold** ``python -m repro`` subprocess against a **warm**
   daemon re-verification of an already-cached program and asserts the
   daemon answers at least ``--min-speedup`` (default 5) times faster;
3. submits :data:`EDITS` edits of a small generated crate, each
   inserting one more line above its failing function, and asserts each
   daemon report equals a cold in-process report of the same source but
   for cache traffic, times and metrics (the warm worker serves the moved
   function from its cache and reuses unchanged report rows);
4. scrapes ``/metrics`` and asserts the solver counters (``smt.*``) are
   non-zero, and that ``/healthz`` reports the cache hits and misses and
   the retired workers ``/metrics`` counts;
5. shuts the daemon down gracefully and asserts it drained.

Run from the repo root::

    PYTHONPATH=src python scripts/daemon_smoke.py
    PYTHONPATH=src python scripts/daemon_smoke.py --programs dotprod,fft
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.suite import all_benchmarks  # noqa: E402
from repro.daemon import client  # noqa: E402
from repro.daemon.testing import run_daemon  # noqa: E402
from repro.fuzz.generator import crate_seed, generate_crate  # noqa: E402
from repro.service import VerifyJob, VerifySession, verify_job  # noqa: E402


def canonical_verdict(report: dict) -> bytes:
    """The verdict-bearing subset of a job report, as canonical JSON bytes.

    Times, cache traffic and solver metrics are nondeterministic or
    path-dependent; everything that states *what was proved* stays.
    """
    functions = [
        {
            "name": fn["name"],
            "status": fn["status"],
            "num_constraints": fn["num_constraints"],
            "num_kvars": fn["num_kvars"],
            "diagnostics": fn["diagnostics"],
            "failures": fn["failures"],
        }
        for fn in report["functions"]
    ]
    payload = {
        "name": report["name"],
        "ok": report["ok"],
        "error": report.get("error"),
        "functions": functions,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def check_one_store(health: dict, exposition: str) -> int:
    """Failures where ``/healthz`` and ``/metrics`` disagree on a count.

    Both read the same registry, so each pair must be equal; a series
    that never fired is absent from ``/metrics`` and counts as 0.
    """
    series = {}
    for line in exposition.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
    failures = 0
    for label, reported, name in (
        ("cache.hits", health["cache"]["hits"], "repro_cache_hits_total"),
        ("cache.misses", health["cache"]["misses"], "repro_cache_misses_total"),
        ("workers.retired", health["workers"]["retired"], "repro_daemon_sessions_retired_total"),
    ):
        counted = series.get(name, 0)
        if reported != counted:
            print(
                f"FAIL: /healthz {label} = {reported}, /metrics {name} = {counted}",
                file=sys.stderr,
            )
            failures += 1
    print(
        f"/healthz vs /metrics: cache hits {health['cache']['hits']}, "
        f"misses {health['cache']['misses']}, retired workers "
        f"{health['workers']['retired']}: {'agree' if not failures else 'DISAGREE'}"
    )
    return failures


#: Line-inserting edits of the small crate in step 3.
EDITS = 10


def edited_crates(count: int):
    """``count`` versions of the first small generated crate with a failing
    function, the k-th with k comment lines inserted above that function."""
    crate = next(
        crate
        for index in itertools.count()
        if (crate := generate_crate(crate_seed(0, index), "small")).expected_failures
    )
    failing = crate.expected_failures[0]
    for edit in range(1, count + 1):
        above = "".join(f"// edit {k}\n" for k in range(edit))
        yield "\n".join(
            above + fn.source if fn.name == failing else fn.source for fn in crate.functions
        )


def check_edits(url: str, count: int) -> int:
    """Failures among ``count`` edits: daemon reports whose
    :func:`canonical_verdict` differs from a cold in-process report's."""
    failures = 0
    hits = 0
    for number, source in enumerate(edited_crates(count), start=1):
        record = client.verify(url, source, name="edited-crate", timeout=600.0)
        if record["state"] != "done":
            print(
                f"FAIL edit {number}: daemon job {record['state']}: {record.get('error')}",
                file=sys.stderr,
            )
            failures += 1
            continue
        cold = verify_job(
            VerifyJob(source=source, name="edited-crate"), VerifySession(use_cache=False)
        )
        remote = canonical_verdict(record["report"])
        local = canonical_verdict(cold.to_dict())
        hits += record["report"]["cache_hits"]
        if remote != local:
            print(f"FAIL edit {number}: daemon report differs from a cold one", file=sys.stderr)
            print(f"  local : {local.decode()}", file=sys.stderr)
            print(f"  daemon: {remote.decode()}", file=sys.stderr)
            failures += 1
    print(
        f"edits: {count} line insertions above a failing function, daemon reports "
        f"{'equal' if not failures else 'DIFFER FROM'} cold ones ({hits} cache hits)"
    )
    if not hits:
        print("FAIL: the edits never hit the warm worker's cache", file=sys.stderr)
        failures += 1
    return failures


def in_process_report(case) -> dict:
    """One Table-1 program verified on a fresh, cold session."""
    report = verify_job(
        VerifyJob(
            source=case.program.flux_source,
            name=case.name,
            only=tuple(case.program.flux_functions),
        ),
        VerifySession(),
    )
    if report.error is not None:
        raise SystemExit(f"in-process verification of {case.name} errored: {report.error}")
    return report.to_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--programs",
        default=None,
        metavar="NAMES",
        help="comma-separated Table-1 program subset (default: all nine)",
    )
    parser.add_argument(
        "--speedup-program",
        default="dotprod",
        metavar="NAME",
        help="program used for the warm-vs-cold measurement",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required cold/warm wall-clock ratio (default: 5)",
    )
    args = parser.parse_args(argv)

    cases = all_benchmarks()
    if args.programs:
        wanted = {name.strip() for name in args.programs.split(",")}
        unknown = wanted - {case.name for case in cases}
        if unknown:
            raise SystemExit(f"unknown programs: {', '.join(sorted(unknown))}")
        cases = [case for case in cases if case.name in wanted]
    speedup_case = next(
        (case for case in all_benchmarks() if case.name == args.speedup_program), None
    )
    if speedup_case is None:
        raise SystemExit(f"unknown --speedup-program: {args.speedup_program}")

    failures = 0
    with run_daemon() as daemon:
        # -- 1. verdict equivalence on every program -------------------------
        for case in cases:
            started = time.perf_counter()
            local = canonical_verdict(in_process_report(case))
            local_elapsed = time.perf_counter() - started
            started = time.perf_counter()
            record = client.verify(
                daemon.url,
                case.program.flux_source,
                name=case.name,
                only=case.program.flux_functions,
                timeout=600.0,
            )
            remote_elapsed = time.perf_counter() - started
            if record["state"] != "done":
                print(
                    f"FAIL {case.name}: daemon job {record['state']}: {record.get('error')}",
                    file=sys.stderr,
                )
                failures += 1
                continue
            remote = canonical_verdict(record["report"])
            same = local == remote
            print(
                f"{'ok  ' if same else 'FAIL'} {case.name:10s} "
                f"in-process {local_elapsed:7.2f}s, daemon {remote_elapsed:7.2f}s, "
                f"verdicts {'byte-identical' if same else 'DIFFER'}"
            )
            if not same:
                print(f"  local : {local.decode()}", file=sys.stderr)
                print(f"  daemon: {remote.decode()}", file=sys.stderr)
                failures += 1

        # -- 2. warm daemon vs cold CLI --------------------------------------
        program_path = Path("/tmp/daemon_smoke_program.rs")
        program_path.write_text(speedup_case.program.flux_source, encoding="utf-8")
        started = time.perf_counter()
        cold = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "--no-cache",
                "--only",
                ",".join(speedup_case.program.flux_functions),
                str(program_path),
            ],
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        cold_elapsed = time.perf_counter() - started
        if cold.returncode != 0:
            print(f"FAIL cold run exited {cold.returncode}: {cold.stderr}", file=sys.stderr)
            failures += 1
        # The daemon verified this program in step 1 (or now, on subsets):
        # a re-submission under a fresh job name is answered by the warm
        # session's function-result cache, not by request deduplication.
        # Best-of-3, so scheduler jitter doesn't dominate the measurement;
        # the client's held wait answers as soon as the job ends.
        client.verify(
            daemon.url,
            speedup_case.program.flux_source,
            name=f"{speedup_case.name}-warmup",
            only=speedup_case.program.flux_functions,
            timeout=600.0,
        )
        warm_elapsed = float("inf")
        warm_record = {}
        for attempt in range(3):
            started = time.perf_counter()
            record = client.verify(
                daemon.url,
                speedup_case.program.flux_source,
                name=f"{speedup_case.name}-warm-{attempt}",
                only=speedup_case.program.flux_functions,
                timeout=600.0,
            )
            elapsed = time.perf_counter() - started
            if elapsed < warm_elapsed:
                warm_elapsed, warm_record = elapsed, record
        speedup = cold_elapsed / warm_elapsed if warm_elapsed > 0 else float("inf")
        warm_report = warm_record.get("report", {})
        served_from_cache = warm_report.get("cache_hits", 0) > 0
        print(
            f"warm-vs-cold [{speedup_case.name}]: cold {cold_elapsed:.3f}s, "
            f"warm {warm_elapsed:.3f}s -> {speedup:.1f}x "
            f"(cache_hits={warm_report.get('cache_hits')})"
        )
        if speedup < args.min_speedup:
            print(
                f"FAIL: warm daemon speedup {speedup:.1f}x < {args.min_speedup}x",
                file=sys.stderr,
            )
            failures += 1
        if not served_from_cache:
            print("FAIL: warm run did not hit the function-result cache", file=sys.stderr)
            failures += 1

        # -- 3. edits above a failing function --------------------------------
        failures += check_edits(daemon.url, EDITS)

        # -- 4. metrics exposition -------------------------------------------
        exposition = client.metrics(daemon.url)
        smt_counters = {
            line.split()[0]: float(line.split()[1])
            for line in exposition.splitlines()
            if line.startswith("repro_smt_")
            and "_bucket" not in line
            and len(line.split()) == 2
        }
        live = {name: value for name, value in smt_counters.items() if value > 0}
        print(f"/metrics: {len(smt_counters)} smt series, {len(live)} non-zero")
        if not live:
            print("FAIL: no non-zero smt.* counters in /metrics", file=sys.stderr)
            failures += 1
        for required in ("repro_daemon_jobs_completed_total", "repro_daemon_sessions_warm 1"):
            if required not in exposition:
                print(f"FAIL: {required} missing from /metrics", file=sys.stderr)
                failures += 1
        failures += check_one_store(client.healthz(daemon.url), exposition)

        handle = daemon

    # -- 5. clean shutdown ----------------------------------------------------
    if handle.daemon.state != "stopped" or handle.daemon.queue.active != 0:
        print(
            f"FAIL: daemon did not stop cleanly "
            f"(state={handle.daemon.state}, active={handle.daemon.queue.active})",
            file=sys.stderr,
        )
        failures += 1

    print("daemon smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
