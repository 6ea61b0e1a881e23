"""Predicate-abstraction fixpoint solver for Horn constraints with κ variables.

Algorithm (the "liquid inference" of §4.2, phase 3):

1. Initialise every κ to the conjunction of *all* its qualifier instances
   (the strongest candidate solution).
2. Repeatedly pick a constraint whose head is a κ application and whose body
   (with the current assignment substituted in) does not imply some qualifier
   in the head κ's set; *weaken* the κ by dropping that qualifier.  Because
   sets only shrink and are finite, this terminates.
3. When no more weakening is needed, check every concrete-head constraint
   under the final assignment; failures are reported with their provenance
   tags — these are the type errors shown to the user.

Scheduling and SMT backend come in two strategies:

``"incremental"`` (the default)
    Clauses are processed off a κ-dependency *worklist*: a clause is
    re-examined only when a κ appearing in its hypotheses was weakened,
    instead of rescanning every clause whose κ-footprint intersects a dirty
    set.  Each clause owns a persistent :class:`repro.smt.IncrementalSolver`;
    one visit asserts the (solution-substituted) hypotheses once inside a
    ``push``/``pop`` scope and tests every candidate qualifier under a
    throwaway assumption literal, so N qualifier checks cost one CNF build
    instead of N.  Atom tables, learned clauses and theory lemmas survive
    across visits to the same clause.

``"naive"``
    The historical loop: dirty-set rescan, one from-scratch
    :func:`repro.smt.is_valid` query per qualifier check.  Kept as the
    differential-testing oracle; both strategies converge to the same
    (unique) greatest fixpoint, so solutions and reported errors must match
    exactly.

Exhausting ``max_iterations`` does not raise: the result carries one
budget-exhausted :class:`FixpointError` per clause still scheduled, so
callers keep their diagnostics (tags, partial solution, statistics).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from fractions import Fraction

from repro.logic.expr import (
    binop,
    unary,
    App,
    BinOp,
    BoolConst,
    CMP_OPS,
    Expr,
    Forall,
    IntConst,
    Ite,
    KVar,
    RealConst,
    TRUE,
    UnaryOp,
    Var,
    and_,
)
from repro.logic.simplify import simplify
from repro.logic.sorts import Sort
from repro.logic.subst import kvars_of, substitute
from repro.obs import current_obs, span as obs_span
from repro.smt import (
    IncrementalSolver,
    SatResult,
    SmtError,
    current_context,
    is_valid,
    validity_answer,
)
from repro.smt.quant import has_quantifier
from repro.fixpoint.constraint import (
    Constraint,
    ConstraintError,
    FlatConstraint,
    KVarDecl,
    flatten,
)
from repro.fixpoint.qualifiers import Qualifier, default_qualifiers, instantiate_qualifiers


Solution = Dict[str, Expr]
"""Maps κ names to predicates over the κ's formal parameters."""

DEFAULT_STRATEGY = "incremental"
"""Strategy used when :class:`FixpointSolver` is built without an explicit
one; tests and benchmarks flip this to ``"naive"`` to run the oracle loop."""

BUDGET_EXHAUSTED = "budget-exhausted"
INVALID = "invalid"
SOLVER_UNKNOWN = "solver-unknown"

# Fault-boundary kinds: the execution layer (scheduler/daemon)
# uses these when a function's verdict was degraded by a crash, a missed
# deadline or a memory ceiling rather than decided by the solver.  Such
# errors carry no constraint.
WORKER_CRASHED = "worker-crashed"
DEADLINE_EXCEEDED = "deadline-exceeded"
RESOURCE_EXHAUSTED = "resource-exhausted"
FAULT_KINDS = (WORKER_CRASHED, DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED)

_ONESHOT = object()
"""Per-clause sentinel: the clause left the incremental fragment (quantified
hypotheses or a preprocessing error) and is checked with one-shot queries."""

_WITNESS_CACHE_LIMIT = 16
"""Counterexample models retained per clause for query-free discarding."""


@dataclass
class FixpointError:
    """A constraint the solver could not discharge.

    ``kind`` is :data:`INVALID` for a constraint that remains invalid under
    the weakest viable assignment (a type error), or
    :data:`BUDGET_EXHAUSTED` for a constraint still scheduled for weakening
    when ``max_iterations`` ran out (an incomplete run, not a refutation).

    For :data:`INVALID` errors the solver additionally records the
    *counterexample context*: the κ-solution-substituted ``hypotheses`` and
    ``goal`` of the failed validity query, and — when the DPLL(T) stack
    could extract one — the satisfying assignment ``model`` of the
    refutation, a concrete valuation of the clause's binders under which
    every hypothesis holds and the goal is false.

    Errors with a kind from :data:`FAULT_KINDS` come from the execution
    layer, not the solver, and have ``constraint is None``: their ``tag``
    is the kind itself and their ``span`` is empty.
    """

    constraint: Optional[FlatConstraint] = None
    kind: str = INVALID
    detail: str = ""
    hypotheses: Tuple[Expr, ...] = ()
    goal: Optional[Expr] = None
    model: Optional[Dict[str, object]] = None

    @property
    def tag(self) -> str:
        if self.constraint is None:
            return self.kind
        return self.constraint.tag

    @property
    def span(self):
        if self.constraint is None:
            return None
        return self.constraint.span

    def __str__(self) -> str:
        if self.kind in FAULT_KINDS or self.constraint is None:
            suffix = f": {self.detail}" if self.detail else ""
            return f"{self.kind}{suffix}"
        if self.kind == BUDGET_EXHAUSTED:
            suffix = f" ({self.detail})" if self.detail else ""
            return (
                f"iteration budget exhausted before clause "
                f"{self.constraint.describe()} converged{suffix}"
            )
        if self.kind == SOLVER_UNKNOWN:
            suffix = f" ({self.detail})" if self.detail else ""
            return (
                f"solver returned unknown on clause "
                f"{self.constraint.describe()}{suffix}"
            )
        return f"invalid constraint {self.constraint.describe()}"


@dataclass
class _RunStats:
    """Counters threaded through one ``solve`` call."""

    iterations: int = 0
    queries: int = 0
    from_scratch: int = 0
    assumption_checks: int = 0
    contexts_built: int = 0
    clauses_retained: int = 0
    batched_checks: int = 0
    theory_propagations: int = 0
    partial_checks: int = 0
    core_shrink_rounds: int = 0
    shrink_budget_hits: int = 0
    explanations: int = 0
    explanation_literals: int = 0
    sat_phase_saving_hits: int = 0
    sat_time: float = 0.0
    theory_time: float = 0.0
    # UNKNOWN solver answers observed during weakening, surfaced as
    # structured errors instead of being silently folded into "not valid"
    unknown_errors: List[FixpointError] = field(default_factory=list)

    def absorb_context(self, solver: IncrementalSolver) -> None:
        """Fold a retiring per-clause solver's lifetime counters in."""
        self.clauses_retained += solver.clauses_retained
        self.theory_propagations += solver.theory_propagations
        self.partial_checks += solver.partial_checks
        self.core_shrink_rounds += solver.core_shrink_rounds
        self.shrink_budget_hits += solver.shrink_budget_hits
        self.explanations += solver.explanations
        self.explanation_literals += solver.explanation_literals
        self.sat_phase_saving_hits += solver.sat_phase_saving_hits
        self.sat_time += solver.sat_time
        self.theory_time += solver.theory_time

    def record_unknown(self, clause: FlatConstraint, reason: str) -> None:
        for existing in self.unknown_errors:
            if existing.constraint is clause and existing.detail == reason:
                return
        self.unknown_errors.append(
            FixpointError(clause, kind=SOLVER_UNKNOWN, detail=reason)
        )


@dataclass
class FixpointResult:
    solution: Solution
    errors: List[FixpointError]
    iterations: int = 0
    smt_queries: int = 0
    elapsed: float = 0.0
    from_scratch_solves: int = 0
    assumption_checks: int = 0
    incremental_hits: int = 0
    clauses_retained: int = 0
    budget_exhausted: bool = False
    batched_checks: int = 0
    theory_propagations: int = 0
    partial_checks: int = 0
    core_shrink_rounds: int = 0
    shrink_budget_hits: int = 0
    explanations: int = 0
    explanation_literals: int = 0
    sat_phase_saving_hits: int = 0
    sat_time: float = 0.0
    theory_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def avg_explanation_len(self) -> float:
        """Mean literal count of theory-conflict explanations this run."""
        if not self.explanations:
            return 0.0
        return self.explanation_literals / self.explanations


#: ``FixpointResult`` counter fields mirrored into ``fixpoint.<field>``
#: registry counters after every solve.  All are deterministic functions of
#: the constraint set, so merged totals agree between serial and ``--jobs N``
#: runs (functions are solved independently either way).
_RESULT_COUNTER_FIELDS = (
    ("iterations", "clause visits across all weakening rounds"),
    ("smt_queries", "satisfiability queries issued by the fixpoint loop"),
    ("from_scratch_solves", "one-shot solver builds (non-incremental checks)"),
    ("assumption_checks", "qualifier checks on a persistent incremental solver"),
    ("incremental_hits", "assumption checks that reused an existing solver"),
    ("batched_checks", "refute-any batches covering several qualifiers at once"),
    ("clauses_retained", "learned clauses surviving pop() in per-clause solvers"),
    ("theory_propagations", "theory propagations inside per-clause solvers"),
    ("partial_checks", "partial feasibility checks inside per-clause solvers"),
    ("core_shrink_rounds", "core-shrink rounds inside per-clause solvers"),
    ("shrink_budget_hits", "core-shrink rounds truncated by the per-check budget"),
    ("explanations", "conflict explanations inside per-clause solvers"),
    ("explanation_literals", "explanation literals inside per-clause solvers"),
    ("sat_phase_saving_hits", "decisions that reused a saved phase"),
)


def _emit_fixpoint_metrics(result: "FixpointResult", strategy: str) -> None:
    """Mirror one solve's counters into the ambient metrics registry."""
    registry = current_obs().registry
    registry.counter(
        f"fixpoint.solves.{strategy}", help="fixpoint runs by weakening strategy"
    ).inc()
    for field_name, help_text in _RESULT_COUNTER_FIELDS:
        value = getattr(result, field_name)
        if value:
            registry.counter(f"fixpoint.{field_name}", help=help_text).inc(value)
    if result.errors:
        registry.counter(
            "fixpoint.errors", help="constraints left undischarged (all kinds)"
        ).inc(len(result.errors))
    registry.counter(
        "fixpoint.solve_seconds",
        help="wall-clock time inside FixpointSolver.solve",
        unit="seconds",
    ).inc(result.elapsed)
    if result.sat_time:
        registry.counter(
            "fixpoint.sat_seconds",
            help="SAT-core time inside per-clause incremental solvers",
            unit="seconds",
        ).inc(result.sat_time)
    if result.theory_time:
        registry.counter(
            "fixpoint.theory_seconds",
            help="theory-solver time inside per-clause incremental solvers",
            unit="seconds",
        ).inc(result.theory_time)


def apply_solution(expr: Expr, solution: Solution, decls: Dict[str, KVarDecl]) -> Expr:
    """Substitute solved κ applications inside ``expr``.

    Subtrees without κ occurrences are returned as-is — with interned
    expressions the check is one cached-frozenset truthiness test, which
    spares the common case (concrete hypotheses) a full rebuild per fixpoint
    visit.
    """
    if not kvars_of(expr):
        return expr
    if isinstance(expr, KVar):
        decl = decls.get(expr.name)
        if decl is None:
            raise ConstraintError(f"unknown κ variable {expr.name}")
        body = solution.get(expr.name, TRUE)
        mapping = {
            formal: apply_solution(actual, solution, decls)
            for (formal, _), actual in zip(decl.params, expr.args)
        }
        return substitute(body, mapping)
    if isinstance(expr, BinOp):
        return binop(
            expr.op,
            apply_solution(expr.lhs, solution, decls),
            apply_solution(expr.rhs, solution, decls),
        )
    if isinstance(expr, UnaryOp):
        return unary(expr.op, apply_solution(expr.operand, solution, decls))
    if isinstance(expr, Ite):
        return Ite(
            apply_solution(expr.cond, solution, decls),
            apply_solution(expr.then, solution, decls),
            apply_solution(expr.otherwise, solution, decls),
        )
    if isinstance(expr, App):
        return App(
            expr.func,
            tuple(apply_solution(a, solution, decls) for a in expr.args),
            expr.sort,
        )
    if isinstance(expr, Forall):
        return Forall(expr.binders, apply_solution(expr.body, solution, decls))
    return expr


class _EvalError(Exception):
    """The expression falls outside the directly evaluable fragment."""


def _as_bool(value) -> bool:
    return value if isinstance(value, bool) else value != 0


def _as_num(value):
    if isinstance(value, bool):
        return 1 if value else 0
    return value


def _eval_expr(expr: Expr, model: Dict[str, object]):
    """Evaluate a goal under a solver model (missing variables default to 0).

    Only the fragment whose semantics provably coincide with the SMT
    solver's is handled: constants, variables, boolean connectives,
    comparisons, ``+ - *`` and if-then-else.  Division, modulo and
    applications are *uninterpreted* for the solver (opaque fresh
    variables), so evaluating them arithmetically could disagree with the
    model — they raise :class:`_EvalError` and the caller falls back to an
    exact per-qualifier check.
    """
    if isinstance(expr, BoolConst):
        return expr.value
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, RealConst):
        return Fraction(expr.value)
    if isinstance(expr, Var):
        return model.get(expr.name, 0)
    if isinstance(expr, UnaryOp):
        if expr.op == "!":
            return not _as_bool(_eval_expr(expr.operand, model))
        if expr.op == "-":
            return -_as_num(_eval_expr(expr.operand, model))
        raise _EvalError(expr.op)
    if isinstance(expr, Ite):
        chosen = expr.then if _as_bool(_eval_expr(expr.cond, model)) else expr.otherwise
        return _eval_expr(chosen, model)
    if isinstance(expr, BinOp):
        op = expr.op
        if op == "&&":
            return _as_bool(_eval_expr(expr.lhs, model)) and _as_bool(
                _eval_expr(expr.rhs, model)
            )
        if op == "||":
            return _as_bool(_eval_expr(expr.lhs, model)) or _as_bool(
                _eval_expr(expr.rhs, model)
            )
        if op == "=>":
            return not _as_bool(_eval_expr(expr.lhs, model)) or _as_bool(
                _eval_expr(expr.rhs, model)
            )
        if op == "<=>":
            return _as_bool(_eval_expr(expr.lhs, model)) == _as_bool(
                _eval_expr(expr.rhs, model)
            )
        if op in CMP_OPS:
            lhs = _as_num(_eval_expr(expr.lhs, model))
            rhs = _as_num(_eval_expr(expr.rhs, model))
            if op == "<":
                return lhs < rhs
            if op == "<=":
                return lhs <= rhs
            if op == ">":
                return lhs > rhs
            if op == ">=":
                return lhs >= rhs
            if op == "=":
                return lhs == rhs
            return lhs != rhs
        if op == "+":
            return _as_num(_eval_expr(expr.lhs, model)) + _as_num(_eval_expr(expr.rhs, model))
        if op == "-":
            return _as_num(_eval_expr(expr.lhs, model)) - _as_num(_eval_expr(expr.rhs, model))
        if op == "*":
            return _as_num(_eval_expr(expr.lhs, model)) * _as_num(_eval_expr(expr.rhs, model))
        raise _EvalError(op)
    raise _EvalError(type(expr).__name__)


def _goal_refuted_by(goal: Expr, model: Dict[str, object]) -> bool:
    """Whether ``model`` definitively falsifies ``goal`` (False when unsure)."""
    try:
        return _eval_expr(goal, model) is False
    except _EvalError:
        return False


def _goal_eval_failure(goal: Expr, model: Dict[str, object]) -> Optional[str]:
    """The construct that puts ``goal`` outside the evaluable fragment, if any."""
    try:
        _eval_expr(goal, model)
    except _EvalError as error:
        return str(error)
    return None


@dataclass
class FixpointSolver:
    """Solver instance; create one per verification task.

    Declare every κ variable, then hand ``solve`` the constraint tree the
    checker produced.  A constraint with only concrete heads needs no
    declarations:

    >>> from repro.fixpoint.constraint import c_forall, c_pred
    >>> from repro.logic.expr import Var, ge
    >>> from repro.logic.sorts import INT
    >>> solver = FixpointSolver()
    >>> valid = c_forall("x", INT, ge(Var("x"), 1), c_pred(ge(Var("x"), 0)))
    >>> solver.solve(valid).ok
    True

    A failing obligation comes back as a :class:`FixpointError` carrying the
    clause's provenance tag and a concrete counterexample model:

    >>> broken = c_forall("x", INT, ge(Var("x"), 0), c_pred(ge(Var("x"), 1), tag="demo"))
    >>> result = FixpointSolver().solve(broken)
    >>> [error.tag for error in result.errors]
    ['demo']
    >>> int(result.errors[0].model["x"])
    0
    """

    kvar_decls: Dict[str, KVarDecl] = field(default_factory=dict)
    qualifiers: Sequence[Qualifier] = field(default_factory=default_qualifiers)
    max_iterations: int = 10000
    strategy: Optional[str] = None  # None -> module DEFAULT_STRATEGY
    # Theory-round budget handed to each per-clause incremental solver;
    # None keeps the IncrementalSolver default.  Tests use a tiny budget to
    # exercise the structured solver-unknown error path.
    max_theory_rounds: Optional[int] = None

    def declare(self, decl: KVarDecl) -> None:
        self.kvar_decls[decl.name] = decl

    # -- main entry point ------------------------------------------------------

    def solve(self, constraint: Constraint) -> FixpointResult:
        started = time.perf_counter()
        strategy = self.strategy or DEFAULT_STRATEGY
        if strategy not in ("incremental", "naive"):
            raise ConstraintError(f"unknown fixpoint strategy {strategy!r}")
        clauses = flatten(constraint)
        self._check_kvars_known(clauses)

        candidate: Dict[str, List[Expr]] = {
            name: instantiate_qualifiers(decl, self.qualifiers)
            for name, decl in self.kvar_decls.items()
        }

        kvar_clauses = [clause for clause in clauses if clause.head.is_kvar]
        concrete_clauses = [clause for clause in clauses if not clause.head.is_kvar]

        stats = _RunStats()
        if strategy == "naive":
            budget_errors = self._weaken_naive(kvar_clauses, candidate, stats)
        else:
            budget_errors = self._weaken_worklist(kvar_clauses, candidate, stats)

        solution: Solution = {
            name: simplify(and_(*predicates)) for name, predicates in candidate.items()
        }

        errors: List[FixpointError] = list(budget_errors)
        errors.extend(stats.unknown_errors)
        if not budget_errors:
            # Only check concrete heads at an actual fixpoint: under a
            # half-weakened assignment a failure would not be a type error.
            for clause in concrete_clauses:
                hypotheses, sorts = self._clause_hypotheses(clause, candidate)
                goal = apply_solution(clause.head.expr, solution, self.kvar_decls)
                stats.queries += 1
                stats.from_scratch += 1
                answer = validity_answer(hypotheses, goal, sorts)
                if answer.result is SatResult.UNKNOWN:
                    # Not proved, but not refuted either: surface the budget
                    # exhaustion as a structured error, never as a silent
                    # pass (and not as a type error, since there is no
                    # counterexample).
                    errors.append(
                        FixpointError(
                            clause,
                            kind=SOLVER_UNKNOWN,
                            detail=answer.reason or "solver returned unknown",
                            hypotheses=tuple(hypotheses),
                            goal=goal,
                        )
                    )
                elif not answer.is_unsat:
                    # One query serves both the verdict and the model — the
                    # raw material of the counterexample shown to the user.
                    model = dict(answer.model) if answer.is_sat and answer.model is not None else None
                    if model is not None:
                        # Binders absent from the model are don't-cares (they
                        # were simplified away or their atoms were never
                        # assigned), so any value — pick 0/false — extends the
                        # refutation.  This keeps counterexamples concrete
                        # even for tautologically false obligations.
                        for binder_name, _ in clause.binders:
                            model.setdefault(binder_name, 0)
                    errors.append(
                        FixpointError(
                            clause,
                            hypotheses=tuple(hypotheses),
                            goal=goal,
                            model=model,
                        )
                    )

        result = FixpointResult(
            solution=solution,
            errors=errors,
            iterations=stats.iterations,
            smt_queries=stats.queries,
            elapsed=time.perf_counter() - started,
            from_scratch_solves=stats.from_scratch,
            assumption_checks=stats.assumption_checks,
            incremental_hits=max(0, stats.assumption_checks - stats.contexts_built),
            clauses_retained=stats.clauses_retained,
            budget_exhausted=bool(budget_errors),
            batched_checks=stats.batched_checks,
            theory_propagations=stats.theory_propagations,
            partial_checks=stats.partial_checks,
            core_shrink_rounds=stats.core_shrink_rounds,
            shrink_budget_hits=stats.shrink_budget_hits,
            explanations=stats.explanations,
            explanation_literals=stats.explanation_literals,
            sat_phase_saving_hits=stats.sat_phase_saving_hits,
            sat_time=stats.sat_time,
            theory_time=stats.theory_time,
        )
        _emit_fixpoint_metrics(result, strategy)
        return result

    # -- weakening strategies ----------------------------------------------------

    def _weaken_worklist(
        self,
        kvar_clauses: List[FlatConstraint],
        candidate: Dict[str, List[Expr]],
        stats: _RunStats,
    ) -> List[FixpointError]:
        """Weaken to the greatest fixpoint, worklist-scheduled.

        ``dependents[κ]`` lists the clauses whose *hypotheses* mention κ:
        those are exactly the clauses whose checks can newly fail when κ is
        weakened.  (A clause whose only link to κ is its own head needs no
        revisit — its kept qualifiers were proved under hypotheses that did
        not change.)
        """
        dependents: Dict[str, List[int]] = {}
        for index, clause in enumerate(kvar_clauses):
            mentioned: Set[str] = set()
            for hypothesis in clause.hypotheses:
                mentioned |= kvars_of(hypothesis)
            for name in mentioned:
                dependents.setdefault(name, []).append(index)

        contexts: List[object] = [None] * len(kvar_clauses)
        # Per-clause counterexample caches: κ solutions only ever weaken, so
        # a model that once satisfied a clause's hypotheses satisfies every
        # later (weaker) version of them — old witnesses keep discarding
        # qualifiers for free on every revisit.
        witnesses: List[List[Dict[str, object]]] = [[] for _ in kvar_clauses]
        queue = deque(range(len(kvar_clauses)))
        queued = set(queue)
        budget_errors: List[FixpointError] = []
        while queue:
            index = queue.popleft()
            queued.discard(index)
            stats.iterations += 1
            if stats.iterations > self.max_iterations:
                budget_errors = self._budget_errors([index, *queue], kvar_clauses)
                break
            clause = kvar_clauses[index]
            head_name = clause.head.kvar.name
            current = candidate[head_name]
            if not current:
                continue
            with obs_span("fixpoint.clause", head=head_name, tag=clause.tag):
                hypotheses, sorts = self._clause_hypotheses(clause, candidate)
                kept = self._surviving_qualifiers(
                    index, clause, hypotheses, sorts, current, contexts, witnesses, stats
                )
            if len(kept) != len(current):
                candidate[head_name] = kept
                for dependent in dependents.get(head_name, ()):
                    if dependent not in queued:
                        queued.add(dependent)
                        queue.append(dependent)
        for context in contexts:
            if isinstance(context, IncrementalSolver):
                stats.absorb_context(context)
        return budget_errors

    def _weaken_naive(
        self,
        kvar_clauses: List[FlatConstraint],
        candidate: Dict[str, List[Expr]],
        stats: _RunStats,
    ) -> List[FixpointError]:
        """The historical dirty-set rescan with one-shot queries (oracle)."""
        clause_kvars: List[Set[str]] = []
        for clause in kvar_clauses:
            mentioned: Set[str] = set(kvars_of(clause.head.expr))
            for hypothesis in clause.hypotheses:
                mentioned |= kvars_of(hypothesis)
            clause_kvars.append(mentioned)

        dirty: Set[str] = set(candidate.keys())
        first_round = True
        while dirty or first_round:
            newly_dirty: Set[str] = set()
            for index, (clause, mentioned) in enumerate(zip(kvar_clauses, clause_kvars)):
                if not first_round and not (mentioned & dirty):
                    continue
                stats.iterations += 1
                if stats.iterations > self.max_iterations:
                    # Everything still scheduled: the interrupted clause, the
                    # rest of the current round, and every clause the next
                    # round would revisit because of fresh weakenings.
                    pending = [index]
                    for later in range(index + 1, len(kvar_clauses)):
                        if first_round or (clause_kvars[later] & dirty):
                            pending.append(later)
                    for other in range(len(kvar_clauses)):
                        if clause_kvars[other] & newly_dirty:
                            pending.append(other)
                    return self._budget_errors(pending, kvar_clauses)
                head_name = clause.head.kvar.name
                current = candidate[head_name]
                if not current:
                    continue
                hypotheses, sorts = self._clause_hypotheses(clause, candidate)
                kept: List[Expr] = []
                decl = self.kvar_decls[head_name]
                for qualifier in current:
                    goal = self._instantiate_head(qualifier, decl, clause.head.kvar)
                    stats.queries += 1
                    stats.from_scratch += 1
                    answer = validity_answer(hypotheses, goal, sorts)
                    if answer.is_unsat:
                        kept.append(qualifier)
                    else:
                        newly_dirty.add(head_name)
                        if answer.result is SatResult.UNKNOWN:
                            reason = answer.reason or "solver returned unknown"
                            stats.record_unknown(
                                clause, f"{reason} (qualifier: {qualifier})"
                            )
                candidate[head_name] = kept
            dirty = newly_dirty
            first_round = False
        return []

    def _budget_errors(
        self, pending: Sequence[int], kvar_clauses: List[FlatConstraint]
    ) -> List[FixpointError]:
        detail = f"max_iterations={self.max_iterations}"
        seen: Set[int] = set()
        errors: List[FixpointError] = []
        for index in pending:
            if index in seen:
                continue
            seen.add(index)
            errors.append(
                FixpointError(kvar_clauses[index], kind=BUDGET_EXHAUSTED, detail=detail)
            )
        return errors

    # -- qualifier filtering -----------------------------------------------------

    def _surviving_qualifiers(
        self,
        index: int,
        clause: FlatConstraint,
        hypotheses: List[Expr],
        sorts: Dict[str, Sort],
        current: List[Expr],
        contexts: List[object],
        witnesses: List[List[Dict[str, object]]],
        stats: _RunStats,
    ) -> List[Expr]:
        """Qualifiers of ``current`` implied by the clause's hypotheses."""
        decl = self.kvar_decls[clause.head.kvar.name]
        goals = [
            (qualifier, self._instantiate_head(qualifier, decl, clause.head.kvar))
            for qualifier in current
        ]
        if contexts[index] is not _ONESHOT and any(
            has_quantifier(hypothesis) for hypothesis in hypotheses
        ):
            contexts[index] = _ONESHOT
        if contexts[index] is not _ONESHOT:
            before = (
                stats.queries,
                stats.from_scratch,
                stats.assumption_checks,
                stats.contexts_built,
                stats.batched_checks,
            )
            try:
                return self._filter_incremental(
                    index, clause, hypotheses, sorts, goals, contexts, witnesses, stats
                )
            except SmtError:
                # Outside the incremental fragment (non-linear after
                # substitution, sort clash, ...): permanently demote this
                # clause to the one-shot path, which has its own handling.
                # The solver must not be reused either way: the failed
                # encoding may have memoised rewrites whose side conditions
                # it never asserted (see ``IncrementalSolver.literal_for``).
                # Counters roll back so the aborted attempt's checks are not
                # double-counted on top of the full one-shot re-run below;
                # clauses the discarded solver retained over its lifetime
                # stay counted since the final summation no longer sees it.
                demoted = contexts[index]
                if isinstance(demoted, IncrementalSolver):
                    stats.absorb_context(demoted)
                contexts[index] = _ONESHOT
                (
                    stats.queries,
                    stats.from_scratch,
                    stats.assumption_checks,
                    stats.contexts_built,
                    stats.batched_checks,
                ) = before
        kept: List[Expr] = []
        for qualifier, goal in goals:
            stats.queries += 1
            stats.from_scratch += 1
            answer = validity_answer(hypotheses, goal, sorts)
            if answer.is_unsat:
                kept.append(qualifier)
            elif answer.result is SatResult.UNKNOWN:
                reason = answer.reason or "solver returned unknown"
                stats.record_unknown(clause, f"{reason} (qualifier: {qualifier})")
        return kept

    def _build_context(self, sorts: Dict[str, Sort]) -> IncrementalSolver:
        if self.max_theory_rounds is None:
            return IncrementalSolver(dict(sorts))
        return IncrementalSolver(dict(sorts), max_theory_rounds=self.max_theory_rounds)

    def _filter_incremental(
        self,
        index: int,
        clause: FlatConstraint,
        hypotheses: List[Expr],
        sorts: Dict[str, Sort],
        goals: List[Tuple[Expr, Expr]],
        contexts: List[object],
        witnesses: List[List[Dict[str, object]]],
        stats: _RunStats,
    ) -> List[Expr]:
        """One clause visit on the incremental backend, core-batched.

        Hypotheses are asserted once in a fresh ``push`` scope.  Instead of
        one assumption check per candidate qualifier, the *conjunction* of
        all pending candidates is tested in a single ``check_sat_assuming``
        call: an UNSAT answer proves every candidate implied at once, while
        a SAT answer's model is a concrete witness that refutes — and hence
        discards — every candidate it falsifies.  Iterating on the
        survivors converges in a handful of queries where the per-qualifier
        loop needed one each, and the final UNSAT certificate makes the kept
        set bit-identical to the one-at-a-time oracle.  Undecidable corners
        (models outside the evaluable fragment, unknown answers) fall back
        to exact per-qualifier checks.
        """
        solver = contexts[index]
        if not isinstance(solver, IncrementalSolver):
            solver = self._build_context(sorts)
            contexts[index] = solver
            stats.contexts_built += 1
            stats.from_scratch += 1
        else:
            solver.declare_sorts(sorts)
        # Session-level SMT statistics are committed only once the whole
        # visit succeeds: if a goal aborts the visit with an SmtError, the
        # one-shot re-run does its own recording and an eager commit here
        # would double-count the aborted checks.  Quantified goals (which
        # need the skolemising one-shot interface, whose recording cannot be
        # deferred) run after the abort-prone incremental block for the same
        # reason.
        survived: Dict[int, bool] = {}
        quantified: List[int] = []
        pending: List[int] = []
        for position, (_, goal) in enumerate(goals):
            if has_quantifier(goal):
                quantified.append(position)
            else:
                pending.append(position)
        incremental_records: List[Tuple[object, float]] = []

        def checked(goal: Expr):
            started = time.perf_counter()
            answer = solver.check_valid_detailed(goal)
            incremental_records.append((answer, time.perf_counter() - started))
            return answer

        def check_individually(
            positions: List[int],
            unevaluable: Optional[Dict[int, str]] = None,
        ) -> None:
            for position in positions:
                stats.queries += 1
                stats.assumption_checks += 1
                answer = checked(goals[position][1])
                survived[position] = answer.is_unsat
                if answer.result is SatResult.UNKNOWN:
                    # Name the candidate, not just the clause tag: a
                    # fuzzer-minimized repro usually has one clause but many
                    # qualifiers, and the detail must say which one stalled.
                    reason = answer.reason or "solver returned unknown"
                    detail = f"{reason} (qualifier: {goals[position][0]})"
                    if unevaluable and position in unevaluable:
                        detail += (
                            "; model evaluation left the decidable fragment"
                            f" at {unevaluable[position]}"
                        )
                    stats.record_unknown(clause, detail)

        # Cached counterexamples discard for free before any query is made:
        # each was a genuine model of this clause's (then stronger)
        # hypotheses, so anything it falsifies is still not implied.
        cache = witnesses[index]
        for model in cache:
            falsified = [
                position
                for position in pending
                if _goal_refuted_by(goals[position][1], model)
            ]
            if falsified:
                for position in falsified:
                    survived[position] = False
                dropped = set(falsified)
                pending = [p for p in pending if p not in dropped]

        solver.push()
        try:
            for hypothesis in hypotheses:
                solver.assert_expr(simplify(hypothesis))
            while pending:
                if len(pending) == 1:
                    check_individually(pending)
                    break
                stats.queries += 1
                stats.assumption_checks += 1
                stats.batched_checks += 1
                started = time.perf_counter()
                answer = solver.refute_any([goals[p][1] for p in pending])
                incremental_records.append((answer, time.perf_counter() - started))
                if answer.is_unsat:
                    for position in pending:
                        survived[position] = True
                    break
                if not answer.is_sat or answer.model is None:
                    if answer.result is SatResult.UNKNOWN:
                        reason = answer.reason or "solver returned unknown"
                        batch = ", ".join(str(goals[p][0]) for p in pending)
                        stats.record_unknown(
                            clause, f"{reason} (batched candidates: {batch})"
                        )
                    check_individually(pending)
                    break
                # Evaluate against the *full* model: goals routinely mention
                # internal (__-prefixed) binders that the user-facing model
                # hides, and a default value for a constrained variable
                # would mis-evaluate the goal.
                model = answer.full_model or answer.model
                falsified = [
                    position
                    for position in pending
                    if _goal_refuted_by(goals[position][1], model)
                ]
                if not falsified:
                    # The witness falsifies only goals outside the evaluable
                    # fragment; decide the remainder exactly, one by one,
                    # remembering which qualifier's goal broke evaluation so
                    # any UNKNOWN fallback can point at the offender.
                    unevaluable: Dict[int, str] = {}
                    for position in pending:
                        failure = _goal_eval_failure(goals[position][1], model)
                        if failure is not None:
                            unevaluable[position] = failure
                    check_individually(pending, unevaluable)
                    break
                if len(cache) >= _WITNESS_CACHE_LIMIT:
                    cache.pop(0)
                cache.append(model)
                for position in falsified:
                    survived[position] = False
                dropped = set(falsified)
                pending = [p for p in pending if p not in dropped]
        finally:
            solver.pop()
        if incremental_records:
            record = current_context().stats
            for answer, elapsed in incremental_records:
                record.record(answer, elapsed)
            record.bump("incremental_checks", len(incremental_records))
        for position in quantified:
            qualifier, goal = goals[position]
            stats.queries += 1
            stats.from_scratch += 1
            answer = validity_answer(hypotheses, goal, sorts)
            survived[position] = answer.is_unsat
            if answer.result is SatResult.UNKNOWN:
                reason = answer.reason or "solver returned unknown"
                stats.record_unknown(clause, f"{reason} (qualifier: {qualifier})")
        return [
            qualifier
            for position, (qualifier, _) in enumerate(goals)
            if survived.get(position)
        ]

    # -- helpers ----------------------------------------------------------------

    def _check_kvars_known(self, clauses: List[FlatConstraint]) -> None:
        for clause in clauses:
            if clause.head.is_kvar and clause.head.kvar.name not in self.kvar_decls:
                raise ConstraintError(
                    f"κ variable {clause.head.kvar.name} used but never declared"
                )

    def _clause_hypotheses(
        self, clause: FlatConstraint, candidate: Dict[str, List[Expr]]
    ) -> Tuple[List[Expr], Dict[str, Sort]]:
        # Only the κs these hypotheses mention: ``apply_solution`` reads an
        # absent κ as ``true``, so each of them must be present.
        mentioned: Set[str] = set()
        for hypothesis in clause.hypotheses:
            mentioned |= kvars_of(hypothesis)
        solution = {
            name: and_(*candidate[name]) for name in mentioned if name in candidate
        }
        hypotheses = [
            apply_solution(hypothesis, solution, self.kvar_decls)
            for hypothesis in clause.hypotheses
        ]
        sorts = clause.sort_env
        return hypotheses, sorts

    def _instantiate_head(self, qualifier: Expr, decl: KVarDecl, application: KVar) -> Expr:
        mapping = {
            formal: actual for (formal, _), actual in zip(decl.params, application.args)
        }
        return substitute(qualifier, mapping)
