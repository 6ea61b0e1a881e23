"""High-level SMT interface used by the type checker and the baseline.

Two queries matter:

* :func:`is_satisfiable` — plain satisfiability of a quantifier-free formula.
* :func:`is_valid` — validity of ``hypotheses |= goal``, the judgement
  ``Δ |= r`` of the paper.  Unknown answers are treated as "not proved",
  which keeps verification sound (a program is only accepted when every
  obligation is proved).

Both go through :func:`check_sat`, an answer-cached front of the one
solver stack: a miss solves the query on a throwaway
:class:`~repro.smt.IncrementalSolver`, and a hit replays the cached answer.

>>> from repro.logic.expr import Var, ge
>>> x = Var("x")
>>> context = SmtContext()
>>> with use_context(context):
...     [is_valid([ge(x, 5)], ge(x, 0)) for _ in range(2)]  # x >= 5 |= x >= 0
[True, True]
>>> context.cache.misses, context.cache.hits  # one solve, then one replay
(1, 1)

Quantified hypotheses (baseline only) are instantiated by
:mod:`repro.smt.quant`; quantified goals are skolemised by stripping the
top-level binders into fresh constants.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.logic.expr import (
    binop,
    BinOp,
    Expr,
    Forall,
    Var,
    and_,
    not_,
)
from repro.logic.simplify import simplify
from repro.logic.sorts import Sort
from repro.logic.subst import substitute
from repro.obs import current_obs, span as obs_span
from repro.smt.incremental import solve_formula
from repro.smt.metrics_bridge import record_check_metrics
from repro.smt.quant import has_quantifier, instantiate
from repro.smt.result import SolverAnswer


_ANSWER_CACHE_LIMIT = 50000


class AnswerCache:
    """LRU memo of ``check_sat`` answers.

    Liquid inference re-checks many identical obligations across fixpoint
    iterations; the cache turns those repeats into dictionary lookups.  Hits
    move the entry to the MRU end; inserting past ``limit`` evicts the LRU
    entry (the old implementation simply stopped inserting at the limit).
    """

    def __init__(self, limit: int = _ANSWER_CACHE_LIMIT) -> None:
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, SolverAnswer]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> Optional[SolverAnswer]:
        answer = self._entries.get(key)
        if answer is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return answer

    def put(self, key: object, answer: SolverAnswer) -> None:
        self._entries[key] = answer
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class SmtContext:
    """Per-run solver state: the answer cache.

    ``repro.service.VerifySession`` owns one of these per run; the module
    keeps a default context for solver calls made outside any session, such
    as a direct :func:`check_sat`.
    Solver statistics live in the ambient metrics registry
    (:func:`repro.obs.current_obs`), not here.
    """

    cache: AnswerCache = field(default_factory=AnswerCache)


_DEFAULT_CONTEXT = SmtContext()
# A ContextVar (not a bare module global) so sessions activated in different
# threads or asyncio tasks stay isolated from each other.
_CONTEXT_VAR: "ContextVar[SmtContext]" = ContextVar(
    "repro_smt_context", default=_DEFAULT_CONTEXT
)
_SKOLEM_COUNTER = itertools.count(1)


def current_context() -> SmtContext:
    return _CONTEXT_VAR.get()


def set_context(context: Optional[SmtContext]) -> SmtContext:
    """Install ``context`` (or the default when ``None``); returns the old one."""
    previous = _CONTEXT_VAR.get()
    _CONTEXT_VAR.set(context if context is not None else _DEFAULT_CONTEXT)
    return previous


@contextmanager
def use_context(context: Optional[SmtContext]) -> Iterator[SmtContext]:
    previous = set_context(context)
    try:
        yield _CONTEXT_VAR.get()
    finally:
        set_context(previous)


def check_sat(expr: Expr, sorts: Optional[Dict[str, Sort]] = None) -> SolverAnswer:
    """Satisfiability of a quantifier-free formula, memoised per context.

    A miss runs :func:`~repro.smt.incremental.solve_formula`, which records
    the fresh check.  A hit replays the cached answer's typed per-check
    statistics (the counts a fresh deterministic solve would produce) but
    adds no time, so merged counter totals stay independent of cache-hit
    patterns.
    """
    context = _CONTEXT_VAR.get()
    key = (expr, tuple(sorted((sorts or {}).items(), key=lambda kv: kv[0])))
    cached = context.cache.get(key)
    if cached is not None:
        record_check_metrics(cached, None)
        return cached
    with obs_span("smt.query"):
        answer = solve_formula(expr, sorts)
    context.cache.put(key, answer)
    return answer


def is_satisfiable(expr: Expr, sorts: Optional[Dict[str, Sort]] = None) -> bool:
    return check_sat(expr, sorts).is_sat


def _skolemize_goal(goal: Expr, sorts: Dict[str, Sort]) -> Expr:
    """Strip top-level universal quantifiers of a goal into fresh constants."""
    current = goal
    while True:
        if isinstance(current, Forall):
            mapping = {}
            for name, sort in current.binders:
                fresh = f"__skolem_{name}_{next(_SKOLEM_COUNTER)}"
                sorts[fresh] = sort
                mapping[name] = Var(fresh, sort)
            current = substitute(current.body, mapping)
            continue
        if isinstance(current, BinOp) and current.op == "&&":
            return and_(
                _skolemize_goal(current.lhs, sorts),
                _skolemize_goal(current.rhs, sorts),
            )
        if isinstance(current, BinOp) and current.op == "=>":
            return binop("=>", current.lhs, _skolemize_goal(current.rhs, sorts))
        return current


def _refutation_query(
    hypotheses: Iterable[Expr],
    goal: Expr,
    sorts: Optional[Dict[str, Sort]],
    quantifier_rounds: int,
) -> tuple:
    """The satisfiability query refuting ``hypotheses |= goal``.

    Returns ``(query, sort_env)``; the judgement holds iff ``query`` is
    unsatisfiable, and a satisfying assignment of ``query`` is a concrete
    counterexample to the judgement.
    """
    sort_env: Dict[str, Sort] = dict(sorts or {})
    hypothesis_list: List[Expr] = [simplify(h) for h in hypotheses]
    goal = simplify(goal)

    if has_quantifier(goal):
        goal = _skolemize_goal(goal, sort_env)

    instantiation_stats: Dict[str, int] = {}
    query = and_(*hypothesis_list, not_(goal))
    if has_quantifier(query):
        # Quantifiers only occur positively (in hypotheses written by the
        # Prusti-style baseline); instantiating the whole query lets ground
        # terms from the goal serve as instantiation candidates.
        query = instantiate(query, rounds=quantifier_rounds, stats=instantiation_stats)
    instantiations = instantiation_stats.get("instantiations", 0)
    if instantiations:
        current_obs().registry.counter(
            "smt.quantifier_instantiations",
            help="axiom instances produced by bounded quantifier instantiation",
        ).inc(instantiations)
    return query, sort_env


def validity_answer(
    hypotheses: Iterable[Expr],
    goal: Expr,
    sorts: Optional[Dict[str, Sort]] = None,
    quantifier_rounds: int = 2,
) -> SolverAnswer:
    """The full solver answer for ``hypotheses |= goal``.

    ``UNSAT`` means the judgement is valid; ``SAT`` means it is refuted and
    the answer's ``model`` is the concrete counterexample — the SAT
    skeleton's boolean choices plus the simplex vertex of the arithmetic
    conjunct, rounded through branch-and-bound to an integer point.
    Callers that need both the verdict *and* the model (the fixpoint
    solver's concrete-head check) should use this single entry point: it
    builds the refutation query exactly once, so statistics are recorded
    once and quantified goals are not re-skolemised.
    """
    query, sort_env = _refutation_query(hypotheses, goal, sorts, quantifier_rounds)
    return check_sat(query, sort_env)


def is_valid(
    hypotheses: Iterable[Expr],
    goal: Expr,
    sorts: Optional[Dict[str, Sort]] = None,
    quantifier_rounds: int = 2,
) -> bool:
    """Decide ``hypotheses |= goal``.

    Returns ``True`` only when the negation is proved unsatisfiable; unknown
    answers count as failures so verification stays sound.
    """
    return validity_answer(hypotheses, goal, sorts, quantifier_rounds).is_unsat
