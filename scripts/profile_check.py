#!/usr/bin/env python3
"""Profile the check pipeline on a Table-1 program and report hotspots.

The speedup claims in the README/benchmarks are reproducible with::

    python scripts/profile_check.py bsearch --top 25 --output PROFILE_bsearch.txt

which runs the full pipeline (parse -> elaborate -> lower -> check ->
liquid fixpoint) under ``cProfile`` and prints the top-N functions by
cumulative and by internal time, the run's full metrics-registry snapshot
(see ``docs/observability.md``), the term-layer cache statistics and the
int-vs-Fraction arithmetic path counts.

Use ``--no-profile`` for a plain wall-clock measurement (cProfile roughly
triples the runtime of this workload — never compare a profiled number
against an unprofiled baseline).  ``--trace-out PATH`` additionally records
a span trace of the run as Chrome trace-event JSON (Perfetto-loadable).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import time
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.fixpoint_bench import run_program_metrics, table1_programs  # noqa: E402
from repro.logic import term_cache_stats  # noqa: E402
from repro.obs import ObsContext  # noqa: E402
from repro.obs.report import render_snapshot  # noqa: E402
from repro.smt.atoms import numeric_path_counts  # noqa: E402


def profile_program(
    name: str,
    top: int,
    sort_keys: List[str],
    profile: bool,
    trace_out: Optional[str] = None,
) -> str:
    program = table1_programs([name])[0]
    sections: List[str] = []

    obs = ObsContext.create(trace=trace_out is not None)
    profiler = cProfile.Profile() if profile else None
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    metrics = run_program_metrics(program, obs=obs)
    if profiler is not None:
        profiler.disable()
    elapsed = time.perf_counter() - started
    if trace_out is not None:
        obs.tracer.export(trace_out)

    sections.append(f"== {name}: pipeline metrics ==")
    sections.append(json.dumps(metrics, indent=2, sort_keys=True, default=str))
    sections.append(f"wall clock: {elapsed:.3f}s" + (" (under cProfile)" if profile else ""))

    sections.append("")
    sections.append(render_snapshot(obs.registry.snapshot(), title=f"{name}: metrics registry"))

    dplt_keys = (
        "batched_checks",
        "theory_propagations",
        "partial_checks",
        "core_shrink_rounds",
        "shrink_budget_hits",
        "explanations",
        "explanation_literals",
        "avg_explanation_len",
        "phase_saving_hits",
        "sat_time",
        "theory_time",
    )
    if any(key in metrics for key in dplt_keys):
        engine = {key: metrics[key] for key in dplt_keys if key in metrics}
        sat_time = float(engine.get("sat_time", 0.0))
        theory_time = float(engine.get("theory_time", 0.0))
        solver_time = sat_time + theory_time
        if solver_time > 0:
            engine["sat_time_share"] = round(sat_time / solver_time, 3)
            engine["theory_time_share"] = round(theory_time / solver_time, 3)
        sections.append("\n== DPLL(T) engine (SAT vs simplex phase split) ==")
        sections.append(json.dumps(engine, indent=2, sort_keys=True, default=str))

    sections.append("\n== term-layer caches ==")
    sections.append(json.dumps(term_cache_stats(), indent=2, sort_keys=True))
    sections.append("\n== arithmetic paths (int fast path vs Fraction fallback) ==")
    sections.append(json.dumps(numeric_path_counts(), indent=2, sort_keys=True))

    if profiler is not None:
        for sort_key in sort_keys:
            buffer = io.StringIO()
            stats = pstats.Stats(profiler, stream=buffer)
            stats.sort_stats(sort_key).print_stats(top)
            sections.append(f"\n== top {top} by {sort_key} ==")
            sections.append(buffer.getvalue())
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "program",
        nargs="?",
        default="bsearch",
        help="Table-1 program name (default: bsearch)",
    )
    parser.add_argument("--top", type=int, default=25, help="hotspots to print (default 25)")
    parser.add_argument(
        "--sort",
        default="cumulative,tottime",
        help="comma-separated pstats sort keys (default cumulative,tottime)",
    )
    parser.add_argument("--output", help="also write the report to this file")
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="skip cProfile; report wall clock and counters only",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write a Chrome trace-event JSON of the run to PATH",
    )
    args = parser.parse_args(argv)

    report = profile_program(
        args.program,
        args.top,
        args.sort.split(","),
        profile=not args.no_profile,
        trace_out=args.trace_out,
    )
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"[profile] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
