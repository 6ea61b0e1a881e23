#!/usr/bin/env python3
"""The repository's benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/README.md``);
``BENCHMARK.json`` names both sets.  Every verdict is checked against the
input's known answer.  Human-readable figures go to standard output, and
the last line is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every verdict matched and every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no verifier sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads
    from perfbench.layers import LayerTracer

    if args.trace:
        outcome = workloads.traced(args.workload, args.seed, LayerTracer())
        wanted = spec["per_layer"]
    else:
        outcome = workloads.UNTRACED[args.workload](args.seed, args.seconds)
        wanted = spec["end_to_end"]

    verdicts = outcome.verdicts
    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.lines:
        print(line)
    for metric in wanted:
        print(f"{metric['name']} = {outcome.metrics[metric['name']]:.6g} {metric['unit']}")
    print(
        f"failed_ratio = {verdicts.failed}/{verdicts.attempted} verdicts "
        f"({verdicts.mismatched} mismatched, {verdicts.errored} errored, {verdicts.unknown} unknown)"
    )
    for problem in verdicts.problems:
        print(f"PROBLEM: {problem}")
    correct = verdicts.failed == 0 and not verdicts.problems
    result = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {
            metric["name"]: {"value": outcome.metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
