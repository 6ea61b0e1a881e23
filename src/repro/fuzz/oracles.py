"""Differential oracles: one verification pipeline, many configurations.

Every knob the repo has grown — fixpoint strategy (naive vs. worklist),
DPLL(T) engine (offline vs. online), the ``--jobs`` process scheduler and
the content-addressed result cache — is *supposed* to steer only speed,
never verdicts.  An :class:`Oracle` names one configuration; the driver
runs each generated crate through a set of them and compares the extracted
:class:`Verdict` tables.  Any disagreement is a bug in one of the four
paths by construction.

Strategy and engine defaults live in module globals read at call time
(``repro.fixpoint.solve.DEFAULT_STRATEGY``, ``repro.smt.solver
.DEFAULT_ENGINE``), so an oracle installs its overrides with a context
manager around the whole job; forked scheduler workers inherit the patched
values through copy-on-write, which is what makes ``jobs`` oracles honour
the same strategy/engine as their serial twin.

Comparison depth: function name, status and the sorted failure *tags* are
compared for every oracle pair.  Full diagnostic strings (which embed
counterexample models) are compared only between oracles that share the
same theory engine — offline and online solvers legitimately report
different models for the same refuted obligation, exactly like two SMT
solvers disagreeing on a satisfying assignment.
"""

from __future__ import annotations

import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.service.api import VerifyJob, verify_job
from repro.service.session import VerifySession

__all__ = [
    "Oracle",
    "ORACLES",
    "Verdict",
    "CrateVerdict",
    "compare_verdicts",
    "default_oracles",
    "resolve_oracles",
    "run_oracle",
]


@dataclass(frozen=True)
class Oracle:
    """One named configuration of the verification pipeline."""

    name: str
    #: Fixpoint strategy override (``"naive"``/``"incremental"``); ``None``
    #: keeps the module default.
    strategy: Optional[str] = None
    #: Theory engine override (``"offline"``/``"online"``); ``None`` keeps
    #: the module default.
    engine: Optional[str] = None
    jobs: int = 1
    #: Verify twice against a private on-disk cache and report the second,
    #: fully-warm pass — every function must replay from cache with the
    #: same verdict the cold run produced.
    warm: bool = False

    @property
    def effective_engine(self) -> str:
        if self.engine is not None:
            return self.engine
        from repro.smt import solver

        return solver.DEFAULT_ENGINE


#: The oracle registry, keyed by CLI name.  ``baseline`` is the default
#: pipeline exactly as ``python -m repro`` runs it.
ORACLES: Dict[str, Oracle] = {
    "baseline": Oracle("baseline"),
    "naive": Oracle("naive", strategy="naive"),
    "offline": Oracle("offline", engine="offline"),
    "jobs2": Oracle("jobs2", jobs=2),
    "jobs4": Oracle("jobs4", jobs=4),
    "warm": Oracle("warm", warm=True),
}


def default_oracles() -> List[Oracle]:
    """The default differential set: one representative per solving path."""
    return [ORACLES[name] for name in ("baseline", "naive", "offline", "warm")]


def resolve_oracles(names: Sequence[str]) -> List[Oracle]:
    oracles = []
    for name in names:
        oracle = ORACLES.get(name)
        if oracle is None:
            raise ValueError(
                f"unknown oracle {name!r} (choose from {', '.join(sorted(ORACLES))})"
            )
        oracles.append(oracle)
    if len(oracles) < 2:
        raise ValueError("differential testing needs at least two oracles")
    return oracles


@dataclass(frozen=True)
class Verdict:
    """One function's verdict, normalised for cross-oracle comparison."""

    name: str
    status: str
    #: Sorted ``tag`` strings of the reported failures — span- and
    #: model-free, so identical across engines for the same refutations.
    tags: Tuple[str, ...]
    #: Full diagnostic renderings (with spans and counterexamples); only
    #: comparable between same-engine oracles.
    details: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CrateVerdict:
    oracle: str
    engine: str
    functions: Tuple[Verdict, ...]

    def by_name(self) -> Dict[str, Verdict]:
        return {v.name: v for v in self.functions}


@contextmanager
def _overrides(strategy: Optional[str], engine: Optional[str]) -> Iterator[None]:
    """Patch the strategy/engine module defaults for the duration."""
    from repro.fixpoint import solve as solve_mod
    from repro.smt import solver as solver_mod

    old_strategy = solve_mod.DEFAULT_STRATEGY
    old_engine = solver_mod.DEFAULT_ENGINE
    if strategy is not None:
        solve_mod.DEFAULT_STRATEGY = strategy
    if engine is not None:
        solver_mod.DEFAULT_ENGINE = engine
    try:
        yield
    finally:
        solve_mod.DEFAULT_STRATEGY = old_strategy
        solver_mod.DEFAULT_ENGINE = old_engine


_FRESH_INDEX = re.compile(r"%\d+")


def _normalise(text: str) -> str:
    """Blank out fresh-variable indices (``v%10`` → ``v%_``).

    Fresh names are allocated in visit order, which the weakening strategy
    is free to change; two pipelines reporting the *same* refutation can
    therefore render it with different counters.  The index carries no
    meaning, so comparing with it blanked keeps the diff about semantics.
    """
    return _FRESH_INDEX.sub("%_", text)


def _verdicts(report) -> Tuple[Verdict, ...]:
    out = []
    for fn in report.functions:
        tags = tuple(sorted(_normalise(f["tag"]) for f in fn.failures))
        details = tuple(sorted(_normalise(str(d)) for d in fn.diagnostics))
        out.append(Verdict(name=fn.name, status=fn.status, tags=tags, details=details))
    return tuple(out)


def run_oracle(source: str, name: str, oracle: Oracle) -> CrateVerdict:
    """Verify ``source`` under ``oracle``'s configuration.

    Each invocation builds a fresh :class:`VerifySession` (and, for warm
    oracles, a private temporary cache directory), so no state leaks
    between oracles or crates.
    """
    with _overrides(oracle.strategy, oracle.engine):
        if oracle.warm:
            with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as cache_dir:
                cold = VerifySession(cache_dir=cache_dir, use_cache=True)
                with cold.activate():
                    verify_job(VerifyJob(source=source, name=name), cold)
                warm = VerifySession(
                    cache_dir=cache_dir, use_cache=True, jobs=oracle.jobs
                )
                with warm.activate():
                    report = verify_job(VerifyJob(source=source, name=name), warm)
        else:
            session = VerifySession(use_cache=False, jobs=oracle.jobs)
            with session.activate():
                report = verify_job(VerifyJob(source=source, name=name), session)
    return CrateVerdict(
        oracle=oracle.name,
        engine=oracle.effective_engine,
        functions=_verdicts(report),
    )


def compare_verdicts(base: CrateVerdict, other: CrateVerdict) -> Optional[str]:
    """Describe the first disagreement between two verdict tables.

    Returns ``None`` when the oracles agree.  Status and failure tags must
    match for every function; diagnostic detail strings additionally must
    match when both oracles ran the same theory engine.
    """
    left, right = base.by_name(), other.by_name()
    if set(left) != set(right):
        only_left = sorted(set(left) - set(right))
        only_right = sorted(set(right) - set(left))
        return (
            f"function sets differ: only {base.oracle}={only_left}, "
            f"only {other.oracle}={only_right}"
        )
    same_engine = base.engine == other.engine
    for fn_name in sorted(left):
        a, b = left[fn_name], right[fn_name]
        if a.status != b.status:
            return (
                f"{fn_name}: status {base.oracle}={a.status!r} "
                f"vs {other.oracle}={b.status!r}"
            )
        if a.tags != b.tags:
            return (
                f"{fn_name}: failure tags {base.oracle}={list(a.tags)} "
                f"vs {other.oracle}={list(b.tags)}"
            )
        if same_engine and a.details != b.details:
            return (
                f"{fn_name}: diagnostics differ under the same engine "
                f"({base.oracle} vs {other.oracle}): "
                f"{list(a.details)} vs {list(b.details)}"
            )
    return None
