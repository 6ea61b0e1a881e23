"""Generative differential stress harness (ROADMAP item 5b).

The pipeline has four interchangeable solving paths — fixpoint strategy,
theory engine, process scheduler, result cache — that must agree on every
program.  This package manufactures the programs and checks
the agreement:

* :mod:`repro.fuzz.generator` — seeded, grammar-driven generator of
  well-typed MiniRust crates with ``#[flux::sig]`` specs;
* :mod:`repro.fuzz.oracles` — named pipeline configurations and verdict
  comparison;
* :mod:`repro.fuzz.driver` — the campaign loop: generate, verify under
  every oracle, compare, record;
* :mod:`repro.fuzz.minimize` — delta-debugging shrinker for findings;
* :mod:`repro.fuzz.corpus` — the on-disk regression corpus replayed by
  the test suite;
* :mod:`repro.fuzz.render` — AST-to-source renderer powering the
  minimizer;
* :mod:`repro.fuzz.cli` — ``python -m repro fuzz``.
"""

from repro.fuzz.driver import Divergence, FuzzConfig, FuzzReport, run_fuzz
from repro.fuzz.generator import PROFILES, GeneratedCrate, crate_seed, generate_crate
from repro.fuzz.minimize import MinimizeStats, minimize_source
from repro.fuzz.oracles import (
    ORACLES,
    Oracle,
    compare_verdicts,
    default_oracles,
    run_oracle,
)

__all__ = [
    "Divergence",
    "FuzzConfig",
    "FuzzReport",
    "GeneratedCrate",
    "MinimizeStats",
    "ORACLES",
    "Oracle",
    "PROFILES",
    "compare_verdicts",
    "crate_seed",
    "default_oracles",
    "generate_crate",
    "minimize_source",
    "run_fuzz",
    "run_oracle",
]
