"""The differential fuzz driver: generate → verify under every oracle → compare.

One :func:`run_fuzz` call is one campaign: a deterministic stream of crates
derived from the campaign seed, each verified under every configured oracle
and compared pairwise against the first (the *reference*) oracle.  Crates
are judged two ways:

* **verdict divergence** — any oracle disagrees with the reference on a
  function's status, failure tags, or (same-engine only) diagnostics;
* **crash** — any oracle raises instead of returning a report.

Either finding is shrunk by the delta-debugging minimizer (preserving the
exact disagreement, or "this oracle still crashes") and recorded as a
:class:`Divergence`; with a corpus directory configured it is also written
as a replayable regression entry (see :mod:`repro.fuzz.corpus`).

Expectation checking is a third, *generator-facing* oracle: the generator
promises which functions verify and which deliberately fail, so the
reference verdict is also compared against that promise.  A mismatch means
the generator and checker disagree about the type system itself — recorded
as an ``expectation`` divergence rather than silently tightening the
grammar.

All progress is visible as ``fuzz.*`` metrics in the ambient
:class:`repro.obs.MetricsRegistry`: crates/functions generated, oracle
runs, divergences by kind, minimizer probes, and generate/verify wall-time
histograms.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.obs import current_obs
from repro.obs.metrics import REQUEST_LATENCY_BUCKETS

from repro.fuzz.generator import GeneratedCrate, crate_seed, generate_crate
from repro.fuzz.minimize import MinimizeStats, minimize_source
from repro.fuzz.oracles import (
    CrateVerdict,
    Oracle,
    compare_verdicts,
    default_oracles,
    run_oracle,
)

__all__ = ["Divergence", "FuzzConfig", "FuzzReport", "run_fuzz"]


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign's shape."""

    seed: int = 0
    #: Number of crates to generate (the CLI's ``--budget``).
    budget: int = 100
    #: Optional wall-clock cap; generation stops at whichever limit is hit
    #: first.  ``None`` means count-only.
    budget_seconds: Optional[float] = None
    profile: str = "small"
    oracles: Tuple[Oracle, ...] = ()
    #: Chaos mode: after the clean reference run, verify each crate again
    #: with one injected fault armed (see :mod:`repro.fuzz.chaos`) and
    #: check verdict parity under containment plus a zero-orphan audit.
    chaos: bool = False
    #: Shrink every finding before reporting it.
    minimize: bool = True
    #: When set, findings are persisted as corpus entries here.
    corpus_dir: Optional[str] = None
    #: Stop the campaign at the first finding (CI wants the fast signal).
    stop_on_divergence: bool = False

    def resolved_oracles(self) -> List[Oracle]:
        if self.oracles:
            return list(self.oracles)
        if self.chaos:
            # Chaos compares clean-vs-faulted runs of the *same* pipeline;
            # the clean reference alone suffices (differential oracles can
            # still be requested explicitly on top).
            from repro.fuzz.oracles import ORACLES

            return [ORACLES["baseline"]]
        return default_oracles()


@dataclass
class Divergence:
    """One finding: a crate on which the pipeline disagrees with itself."""

    kind: str  # "verdict" | "crash" | "expectation" | "chaos" | "orphans"
    seed: int
    profile: str
    crate_index: int
    oracle: str
    detail: str
    source: str
    minimized: Optional[str] = None
    minimize_stats: Optional[MinimizeStats] = None
    corpus_id: Optional[str] = None


@dataclass
class FuzzReport:
    """A campaign's findings; its counts are the ``fuzz.*`` counters of the
    ambient metrics registry."""

    config: FuzzConfig
    elapsed_seconds: float = 0.0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _metrics():
    return current_obs().registry


def _run_all(
    crate: GeneratedCrate, oracles: Sequence[Oracle]
) -> Tuple[List[Optional[CrateVerdict]], List[Optional[str]]]:
    """Run every oracle; a crash becomes ``None`` plus its traceback."""
    verdicts: List[Optional[CrateVerdict]] = []
    errors: List[Optional[str]] = []
    for oracle in oracles:
        _metrics().counter("fuzz.oracle_runs", help="oracle executions").inc()
        try:
            verdicts.append(run_oracle(crate.source, f"fuzz-{crate.seed}", oracle))
            errors.append(None)
        except Exception:
            verdicts.append(None)
            errors.append(traceback.format_exc())
    return verdicts, errors


def _expectation_mismatch(
    crate: GeneratedCrate, reference: CrateVerdict
) -> Optional[str]:
    expected_fail = set(crate.expected_failures)
    for verdict in reference.functions:
        should_verify = verdict.name not in expected_fail
        if (verdict.status == "ok") != should_verify:
            template = next(
                (f.template for f in crate.functions if f.name == verdict.name),
                "?",
            )
            return (
                f"{verdict.name} (template {template}): generator expected "
                f"{'ok' if should_verify else 'failure'}, checker said "
                f"{verdict.status!r} tags={list(verdict.tags)}"
            )
    return None


def _crash_predicate(oracle: Oracle):
    def predicate(source: str) -> bool:
        try:
            run_oracle(source, "minimize", oracle)
        except Exception:
            return True
        return False

    return predicate


def _verdict_predicate(reference: Oracle, other: Oracle):
    def predicate(source: str) -> bool:
        try:
            a = run_oracle(source, "minimize", reference)
            b = run_oracle(source, "minimize", other)
        except Exception:
            return False
        return compare_verdicts(a, b) is not None

    return predicate


def _shrink(divergence: Divergence, predicate) -> None:
    try:
        minimized, stats = minimize_source(divergence.source, predicate)
    except Exception:
        # Minimization is best-effort; the full repro is already recorded.
        return
    divergence.minimized = minimized
    divergence.minimize_stats = stats
    _metrics().counter("fuzz.minimize.runs", help="minimizer invocations").inc()
    _metrics().counter(
        "fuzz.minimize.probes", help="candidate evaluations during minimization"
    ).inc(stats.probes)


def _run_chaos(
    crate: GeneratedCrate, index: int, config: FuzzConfig, reference: CrateVerdict
) -> List[Divergence]:
    """One chaotic re-run of the crate: parity check plus orphan audit."""
    from repro.faults import live_children
    from repro.fuzz.chaos import (
        chaos_mismatch,
        plan_chaos_case,
        run_chaos_case,
        wait_for_no_orphans,
    )

    case = plan_chaos_case(crate, config.seed)
    _metrics().counter("fuzz.chaos.cases", help="chaotic crate re-runs").inc()
    baseline = tuple(live_children())
    findings: List[Divergence] = []
    try:
        chaotic = run_chaos_case(crate, case)
    except Exception:
        # Containment failed outright: the fault escaped the execution
        # layer instead of degrading to a structured verdict.
        findings.append(
            Divergence(
                kind="chaos",
                seed=crate.seed,
                profile=crate.profile,
                crate_index=index,
                oracle=case.describe(),
                detail="fault escaped containment: "
                + traceback.format_exc().strip().splitlines()[-1],
                source=crate.source,
            )
        )
        chaotic = None
    if chaotic is not None:
        mismatch = chaos_mismatch(reference, chaotic)
        if mismatch is not None:
            findings.append(
                Divergence(
                    kind="chaos",
                    seed=crate.seed,
                    profile=crate.profile,
                    crate_index=index,
                    oracle=case.describe(),
                    detail=mismatch,
                    source=crate.source,
                )
            )
    leftover = wait_for_no_orphans(baseline)
    if leftover:
        findings.append(
            Divergence(
                kind="orphans",
                seed=crate.seed,
                profile=crate.profile,
                crate_index=index,
                oracle=case.describe(),
                detail=f"orphaned child processes after chaotic run: {leftover}",
                source=crate.source,
            )
        )
    return findings


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run one differential fuzz campaign; see the module docstring."""
    oracles = config.resolved_oracles()
    reference = oracles[0]
    report = FuzzReport(config=config)
    registry = _metrics()
    started = time.monotonic()

    for index in range(config.budget):
        if (
            config.budget_seconds is not None
            and time.monotonic() - started >= config.budget_seconds
        ):
            break

        generate_started = time.monotonic()
        crate = generate_crate(crate_seed(config.seed, index), config.profile)
        registry.histogram(
            "fuzz.generate_seconds",
            REQUEST_LATENCY_BUCKETS,
            help="crate generation wall time",
            unit="seconds",
        ).observe(time.monotonic() - generate_started)
        registry.counter("fuzz.crates", help="crates generated").inc()
        registry.counter("fuzz.functions", help="functions generated").inc(
            len(crate.functions)
        )

        verify_started = time.monotonic()
        verdicts, errors = _run_all(crate, oracles)
        registry.histogram(
            "fuzz.verify_seconds",
            REQUEST_LATENCY_BUCKETS,
            help="all-oracle verification wall time",
            unit="seconds",
        ).observe(time.monotonic() - verify_started)

        findings: List[Divergence] = []

        for oracle, verdict, error in zip(oracles, verdicts, errors):
            if error is not None:
                findings.append(
                    Divergence(
                        kind="crash",
                        seed=crate.seed,
                        profile=crate.profile,
                        crate_index=index,
                        oracle=oracle.name,
                        detail=error.strip().splitlines()[-1],
                        source=crate.source,
                    )
                )

        reference_verdict = verdicts[0]
        if reference_verdict is not None:
            for oracle, verdict in zip(oracles[1:], verdicts[1:]):
                if verdict is None:
                    continue
                mismatch = compare_verdicts(reference_verdict, verdict)
                if mismatch is not None:
                    findings.append(
                        Divergence(
                            kind="verdict",
                            seed=crate.seed,
                            profile=crate.profile,
                            crate_index=index,
                            oracle=oracle.name,
                            detail=mismatch,
                            source=crate.source,
                        )
                    )
            mismatch = _expectation_mismatch(crate, reference_verdict)
            if mismatch is not None:
                findings.append(
                    Divergence(
                        kind="expectation",
                        seed=crate.seed,
                        profile=crate.profile,
                        crate_index=index,
                        oracle=reference.name,
                        detail=mismatch,
                        source=crate.source,
                    )
                )
            if config.chaos:
                findings.extend(_run_chaos(crate, index, config, reference_verdict))

        for divergence in findings:
            registry.counter(
                f"fuzz.divergences.{divergence.kind}",
                help="findings by kind",
            ).inc()
            if config.minimize and divergence.kind == "crash":
                oracle = next(o for o in oracles if o.name == divergence.oracle)
                _shrink(divergence, _crash_predicate(oracle))
            elif config.minimize and divergence.kind == "verdict":
                oracle = next(o for o in oracles if o.name == divergence.oracle)
                _shrink(divergence, _verdict_predicate(reference, oracle))
            # expectation findings are not shrunk: the unminimized function
            # is already named in the detail and the generator's promise
            # does not survive statement surgery.

        if findings and config.corpus_dir is not None:
            from repro.fuzz.corpus import write_entry

            for divergence in findings:
                divergence.corpus_id = write_entry(config.corpus_dir, divergence)
                registry.counter(
                    "fuzz.corpus.writes", help="corpus entries written"
                ).inc()

        report.divergences.extend(findings)
        if findings and config.stop_on_divergence:
            break

    report.elapsed_seconds = time.monotonic() - started
    return report
