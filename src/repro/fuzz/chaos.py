"""Chaos mode: re-verify each generated crate under an injected fault.

The differential driver's premise is that every *configuration* knob is
verdict-preserving; chaos mode (``python -m repro fuzz --chaos``) extends
it to every *failure*: for each generated crate, after the clean reference
run, one fault is drawn deterministically from the campaign seed — a
worker SIGKILL, a hang past the function deadline, an allocation failure,
a writer dying mid cache write — and the crate is verified again with that
fault armed through :mod:`repro.faults`.

The invariant checked is **verdict parity under containment**
(:func:`chaos_mismatch`): every function's chaotic verdict must either be
byte-identical to its clean verdict, or carry *only* structured fault tags
(``worker-crashed`` / ``deadline-exceeded`` / ``resource-exhausted``) —
faults may cost answers, never change them.  After each chaotic run the
process tree is audited (:func:`wait_for_no_orphans`): the execution layer
must have reaped every child it forked, even the ones it killed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import faults
from repro.core.pipeline import FAULT_TAGS
from repro.service.api import VerifyJob, verify_job
from repro.service.session import VerifySession

from repro.fuzz.generator import GeneratedCrate
from repro.fuzz.oracles import CrateVerdict, _verdicts

__all__ = [
    "CHAOS_GRID",
    "ChaosCase",
    "chaos_mismatch",
    "plan_chaos_case",
    "run_chaos_case",
    "wait_for_no_orphans",
]

#: The fault grid chaos cases are drawn from: ``(site, kind)`` pairs, each
#: annotated with the execution path that exercises the site.
CHAOS_GRID: Tuple[Tuple[str, str], ...] = (
    ("scheduler.worker", "crash"),
    ("scheduler.worker", "hang"),
    ("scheduler.worker", "oom"),
    ("theory.check", "crash"),
    ("theory.check", "oom"),
    ("cache.write", "crash"),
)

#: Function deadline armed for hang cases; the injected hang sleeps longer.
HANG_DEADLINE_SECONDS = 0.5
HANG_SLEEP_SECONDS = 2.0


@dataclass(frozen=True)
class ChaosCase:
    """One crate's fault assignment, derived deterministically."""

    site: str
    kind: str
    #: Function the fault spec matches (``""`` = first site hit wins).
    target: str
    #: ``True`` = fires only on the first attempt (the retry must succeed);
    #: ``False`` = fires on every attempt (containment must quarantine).
    transient: bool
    plan: faults.FaultPlan

    def describe(self) -> str:
        flavour = "transient" if self.transient else "persistent"
        return f"{flavour} {self.kind} at {self.site} (target {self.target or '*'})"


def plan_chaos_case(crate: GeneratedCrate, campaign_seed: int) -> ChaosCase:
    """Draw the crate's fault from the grid; same seeds → same case."""
    rng = random.Random((campaign_seed << 32) ^ crate.seed)
    site, kind = CHAOS_GRID[rng.randrange(len(CHAOS_GRID))]
    names = [fn.name for fn in crate.functions]
    # theory.check carries no per-function key; everything else targets one
    # deterministic function so the blast radius is known in advance.
    target = "" if site == "theory.check" else rng.choice(names)
    transient = site == "scheduler.worker" and rng.random() < 0.5
    spec = faults.FaultSpec(
        site=site,
        kind=kind,
        match=target,
        max_fires=1 if site == "theory.check" else 0,
        attempts=1 if transient else 0,
        delay=HANG_SLEEP_SECONDS,
    )
    plan = faults.FaultPlan(seed=crate.seed, specs=(spec,))
    return ChaosCase(site=site, kind=kind, target=target, transient=transient, plan=plan)


def run_chaos_case(crate: GeneratedCrate, case: ChaosCase) -> CrateVerdict:
    """Verify the crate with the case's fault armed; must not raise.

    The session shape follows the site: scheduler faults need the ``--jobs``
    process pool, cache faults an on-disk cache; hangs arm the per-function
    deadline that contains them.
    """
    import tempfile

    jobs = 2 if case.site == "scheduler.worker" else 1
    fn_deadline = HANG_DEADLINE_SECONDS if case.kind == "hang" else None
    with faults.inject_faults(case.plan):
        if case.site == "cache.write":
            with tempfile.TemporaryDirectory(prefix="repro-chaos-cache-") as cache_dir:
                session = VerifySession(cache_dir=cache_dir, use_cache=True)
                with session.activate():
                    report = verify_job(
                        VerifyJob(source=crate.source, name=f"chaos-{crate.seed}"),
                        session,
                    )
        else:
            session = VerifySession(use_cache=False, jobs=jobs, fn_deadline=fn_deadline)
            with session.activate():
                report = verify_job(
                    VerifyJob(source=crate.source, name=f"chaos-{crate.seed}"),
                    session,
                )
    return CrateVerdict(oracle="chaos", engine="", functions=_verdicts(report))


def chaos_mismatch(clean: CrateVerdict, chaotic: CrateVerdict) -> Optional[str]:
    """Verdict parity under containment; ``None`` when it holds.

    Each function must either match the clean run exactly (status, tags,
    diagnostics) or report *only* structured fault tags.  A function that
    silently flips verdict — or mixes a fault tag with a real diagnostic
    difference — is a containment bug.
    """
    left, right = clean.by_name(), chaotic.by_name()
    if set(left) != set(right):
        return (
            f"function sets differ under chaos: clean={sorted(left)} "
            f"chaos={sorted(right)}"
        )
    for name in sorted(left):
        a, b = left[name], right[name]
        if (a.status, a.tags, a.details) == (b.status, b.tags, b.details):
            continue
        if b.tags and all(tag in FAULT_TAGS for tag in b.tags):
            continue  # the faulted function, degraded to a structured verdict
        return (
            f"{name}: chaos verdict diverged without a fault tag: "
            f"clean status={a.status!r} tags={list(a.tags)} vs "
            f"chaos status={b.status!r} tags={list(b.tags)}"
        )
    return None


def wait_for_no_orphans(baseline: Tuple[int, ...], timeout: float = 5.0) -> List[int]:
    """Wait until no child beyond ``baseline`` survives; return leftovers.

    ``baseline`` is :func:`repro.faults.live_children` captured before the
    chaotic run (a surrounding harness may legitimately keep children).
    Freshly killed children need a moment to be reaped, hence the bounded
    poll; anything still alive after it is a leak.
    """
    import multiprocessing

    known = set(baseline)
    deadline = time.monotonic() + timeout
    while True:
        multiprocessing.active_children()  # joins finished children
        leftover = [pid for pid in faults.live_children() if pid not in known]
        if not leftover or time.monotonic() >= deadline:
            return leftover
        time.sleep(0.05)
