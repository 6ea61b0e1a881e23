#!/usr/bin/env python3
"""Benchmark the fixpoint/SMT stack on the Table-1 programs.

Writes a ``BENCH_fixpoint.json`` with per-program elapsed time, SMT query
counts and incremental-solver statistics, and (optionally) gates against a
committed baseline:

    python scripts/bench_fixpoint.py --output BENCH_fixpoint.json \
        --baseline benchmarks/baseline.json

exits non-zero when ``elapsed``, ``smt_queries`` or ``from_scratch_solves``
regressed by more than ``--tolerance`` (default 25%) for any program the
baseline knows.  Refresh the baseline after an intentional change with:

    python scripts/bench_fixpoint.py --update-baseline

Programs whose elaboration fails (a parse error, an unsupported fragment)
are recorded with an ``error`` field and excluded from gating, so a broken
benchmark never masks a perf regression elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.fixpoint_bench import run_program_metrics, table1_programs  # noqa: E402
from repro.obs import MetricsRegistry, ObsContext, Tracer, to_prometheus  # noqa: E402

COUNT_METRICS = ("smt_queries", "from_scratch_solves")
# Programs this fast are pure noise on the elapsed axis; gate their counts only.
ELAPSED_FLOOR_SECONDS = 0.25


def run_suite(
    names: Optional[List[str]], trace: bool = False
) -> Tuple[Dict[str, Dict[str, object]], MetricsRegistry, List[Dict[str, object]]]:
    """Run the suite; also return the merged registry and any trace spans.

    Each program still runs under its own fresh ``ObsContext`` (so the
    per-program metric blocks stay exact); the merged registry and the
    concatenated span list are the whole-suite artifacts the CI lane
    uploads (``--metrics-out`` / ``--trace-out``).
    """
    per_program: Dict[str, Dict[str, object]] = {}
    merged = MetricsRegistry()
    spans: List[Dict[str, object]] = []
    for program in table1_programs(names):
        print(f"[bench] {program.name} ...", flush=True)
        obs = ObsContext.create(trace=trace)
        metrics = run_program_metrics(program, obs=obs)
        merged.merge(obs.registry.snapshot())
        spans.extend(obs.tracer.drain())
        per_program[program.name] = metrics
        if "error" in metrics:
            print(f"[bench]   error: {metrics['error']}", flush=True)
        else:
            print(
                f"[bench]   elapsed={metrics['elapsed']:.2f}s"
                f" queries={metrics['smt_queries']}"
                f" from_scratch={metrics['from_scratch_solves']}"
                f" incremental_hits={metrics['incremental_hits']}",
                flush=True,
            )
            print(
                f"[bench]   sat: phase_hits={metrics.get('phase_saving_hits', 0)}",
                flush=True,
            )
    return per_program, merged, spans


def compare(
    current: Dict[str, Dict[str, object]],
    baseline: Dict[str, Dict[str, object]],
    tolerance: float,
    time_tolerance: float,
) -> List[str]:
    regressions: List[str] = []
    for name, base in sorted(baseline.items()):
        now = current.get(name)
        if now is None or "error" in base:
            # Programs broken in the *baseline* carry no perf expectations.
            continue
        if "error" in now:
            regressions.append(f"{name}: previously ran, now fails: {now['error']}")
            continue
        for metric in COUNT_METRICS + ("elapsed",):
            base_value = float(base.get(metric, 0.0))
            now_value = float(now.get(metric, 0.0))
            allowed = time_tolerance if metric == "elapsed" else tolerance
            if metric == "elapsed" and base_value < ELAPSED_FLOOR_SECONDS:
                continue
            if base_value <= 0.0:
                # A zero-count baseline still gates: growing from 0 is a
                # regression a relative threshold would never catch.
                if metric != "elapsed" and now_value > 0:
                    regressions.append(
                        f"{name}: {metric} regressed {base_value:.0f} -> {now_value:.0f}"
                    )
                continue
            if now_value > base_value * (1.0 + allowed):
                regressions.append(
                    f"{name}: {metric} regressed {base_value:.3f} -> {now_value:.3f}"
                    f" (>{allowed:.0%})"
                )
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_fixpoint.json")
    parser.add_argument(
        "--baseline", default=os.path.join(REPO_ROOT, "benchmarks", "baseline.json")
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression in query counts before failing (default 0.25)",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression in elapsed time (default 0.25; raise it"
        " when gating against a baseline recorded on different hardware)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the baseline with this run instead of gating",
    )
    parser.add_argument(
        "--programs",
        help="comma-separated subset of Table-1 program names (default: all)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable span tracing and write the whole suite's Chrome "
        "trace-event JSON to PATH (tracing adds overhead — do not gate "
        "elapsed times from a traced run)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the suite's merged metrics registry in Prometheus "
        "text format to PATH",
    )
    args = parser.parse_args(argv)

    names = args.programs.split(",") if args.programs else None
    per_program, merged, spans = run_suite(names, trace=args.trace_out is not None)
    if args.trace_out:
        tracer = Tracer(enabled=True)
        tracer.absorb(spans)
        tracer.export(args.trace_out)
        print(f"[bench] wrote {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus(merged.snapshot()))
        print(f"[bench] wrote {args.metrics_out}")
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "programs": per_program,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.output}")

    if args.update_baseline:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[bench] baseline refreshed: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"[bench] no baseline at {args.baseline}; skipping the gate")
        return 0
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    regressions = compare(
        per_program, baseline.get("programs", {}), args.tolerance, args.time_tolerance
    )
    if regressions:
        print("[bench] REGRESSIONS:")
        for line in regressions:
            print(f"[bench]   {line}")
        return 1
    print("[bench] no regressions against the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
