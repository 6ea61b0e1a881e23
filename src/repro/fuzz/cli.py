"""``python -m repro fuzz`` — the differential stress campaign front end.

Examples
--------
::

    python -m repro fuzz --seed 0 --budget 200
    python -m repro fuzz --seed 7 --budget 1000 --budget-seconds 60
    python -m repro fuzz --oracles baseline,offline --profile crate
    python -m repro fuzz --seed 3 --budget 50 --no-minimize --corpus-dir /tmp/corpus
    python -m repro fuzz --chaos --seed 0 --budget 30
    python -m repro fuzz --replay tests/corpus

Exit status is 0 when every crate agreed under every oracle (and, with
``--replay``, when every corpus entry still replays clean); 1 on any
divergence, crash or expectation mismatch.  Findings print as a compact
triage block: kind, generating seed, the disagreeing oracle, the one-line
detail, and the minimized repro when minimization succeeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.obs import ObsContext, use_obs
from repro.obs.report import render_snapshot

from repro.fuzz.driver import FuzzConfig, run_fuzz
from repro.fuzz.generator import PROFILES
from repro.fuzz.oracles import ORACLES, resolve_oracles

__all__ = ["build_fuzz_parser", "fuzz_main"]


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Differential fuzzing of the verification pipeline.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=100,
        metavar="N",
        help="number of crates to generate (default: 100)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock cap; stops early even if --budget remains",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="small",
        help="crate size profile (default: small)",
    )
    parser.add_argument(
        "--oracles",
        default=None,
        metavar="A,B,...",
        help="comma-separated oracle names (default: baseline,naive,offline,warm); "
        f"available: {', '.join(sorted(ORACLES))}",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="re-verify each crate with one injected fault (crash/hang/OOM) "
        "and assert verdict parity plus a zero-orphan process audit "
        "(see docs/robustness.md)",
    )
    parser.add_argument(
        "--minimize",
        dest="minimize",
        action="store_true",
        default=True,
        help="shrink findings with delta debugging (default)",
    )
    parser.add_argument(
        "--no-minimize", dest="minimize", action="store_false"
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        metavar="DIR",
        help="write findings as replayable corpus entries under DIR",
    )
    parser.add_argument(
        "--stop-on-divergence",
        action="store_true",
        help="stop the campaign at the first finding",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="DIR",
        help="instead of fuzzing, replay the corpus at DIR and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the fuzz.* metrics table after the campaign",
    )
    return parser


def _replay(corpus_dir: str) -> int:
    from repro.fuzz.corpus import load_corpus, replay_entry

    entries = load_corpus(corpus_dir)
    if not entries:
        print(f"no corpus entries under {corpus_dir}")
        return 0
    failures = 0
    for entry in entries:
        mismatch = replay_entry(entry)
        if mismatch is None:
            print(f"ok   {entry.entry_id}")
        else:
            print(f"FAIL {mismatch}")
            failures += 1
    print(f"{len(entries) - failures}/{len(entries)} corpus entries replay clean")
    return 1 if failures else 0


def fuzz_main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_fuzz_parser().parse_args(argv)
    if args.replay is not None:
        return _replay(args.replay)

    oracle_names = (
        tuple(name.strip() for name in args.oracles.split(",") if name.strip())
        if args.oracles
        else ()
    )
    try:
        oracles = tuple(resolve_oracles(oracle_names)) if oracle_names else ()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        budget_seconds=args.budget_seconds,
        profile=args.profile,
        oracles=oracles,
        chaos=args.chaos,
        minimize=args.minimize,
        corpus_dir=args.corpus_dir,
        stop_on_divergence=args.stop_on_divergence,
    )

    obs = ObsContext.create()
    with use_obs(obs):
        report = run_fuzz(config)

    names = ",".join(o.name for o in config.resolved_oracles())
    count = obs.registry.value
    print(
        f"fuzz: seed={config.seed} profile={config.profile} "
        f"crates={count('fuzz.crates')} functions={count('fuzz.functions')} "
        f"oracles={names} runs={count('fuzz.oracle_runs')} "
        f"elapsed={report.elapsed_seconds:.1f}s "
        f"divergences={len(report.divergences)}"
    )
    for divergence in report.divergences:
        print()
        print(
            f"DIVERGENCE [{divergence.kind}] crate #{divergence.crate_index} "
            f"seed={divergence.seed} oracle={divergence.oracle}"
        )
        print(f"  {divergence.detail}")
        if divergence.corpus_id:
            print(f"  corpus entry: {divergence.corpus_id}")
        if divergence.minimized is not None:
            stats = divergence.minimize_stats
            if stats is not None:
                print(
                    f"  minimized {stats.functions_before} -> "
                    f"{stats.functions_after} function(s) "
                    f"in {stats.probes} probes:"
                )
            for line in divergence.minimized.rstrip().splitlines():
                print(f"    {line}")

    if args.stats:
        print()
        print(render_snapshot(obs.registry.snapshot()))
    return 0 if report.ok else 1
