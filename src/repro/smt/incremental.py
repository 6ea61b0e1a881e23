"""Incremental SMT solving: persistent solver state across many checks.

The one-shot pipeline (:func:`repro.smt.solver.solve_formula`) rebuilds the
preprocessor, the atom table, the CNF and the whole DPLL(T) search for every
query.  Liquid inference issues *bursts* of closely related queries — all
qualifier checks for one clause share the exact same hypotheses — so an
:class:`IncrementalSolver` keeps everything alive between checks:

* the preprocessor (if-then-else lifting, Ackermann expansion) and its
  application cache, with Ackermann axioms emitted incrementally as new
  applications appear;
* the atomizer (theory atom -> SAT variable map);
* the CDCL SAT core, including every clause it has learned and every theory
  blocking clause the lazy loop has discovered — both are consequences of
  the asserted formulas, so they keep pruning the search in later checks;
* an assertion stack: :meth:`push` opens a scope guarded by a fresh selector
  variable, :meth:`pop` retires the scope by permanently asserting the
  selector's negation (the guarded clauses become vacuous).

Every formula node is Tseitin-encoded once per solver: the atomizer's memo,
keyed on the interned expression, holds each node's literal and theory
atoms.  Hypotheses are asserted one top-level conjunct at a time, so a
weakened κ solution re-asserted on the next visit costs a memo hit and one
selector-guarded clause per surviving qualifier.  Goals are tested with
:meth:`check_sat_assuming`: the negated goal's literal is *assumed*, never
asserted, so testing ten candidate qualifiers against one hypothesis set
costs one encoding plus ten cheap assumption-guarded searches — and a goal
re-tested on a later visit costs a dictionary lookup plus a search over an
already-warm clause database.  The theory loop only hands the simplex the
atoms of formulas currently in force (global assertions, open scopes, the
goal under test), so retired goals never inflate later LIA calls.

Soundness of retention rests on two facts: clauses are only ever *added*
(popping a scope adds the selector's negation rather than deleting
anything), and the SAT core analyses conflicts with assumptions on their own
decision levels, so learned clauses never bake in an assumption.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Iterable, List, Optional, Set

from repro.logic.expr import Expr, TRUE, conjuncts_of, not_
from repro.logic.simplify import simplify
from repro.logic.sorts import BOOL, INT, Sort
from repro.logic.subst import free_var_sorts, free_vars
from repro.smt.atoms import AtomError
from repro.smt.metrics_bridge import record_check_metrics
from repro.smt.result import SolverAnswer
from repro.smt.sat import SatSolver
from repro.smt.solver import (
    SmtError,
    _Atomizer,
    _Preprocessor,
    ackermann_axioms,
    run_theory_loop,
)
from repro.smt.theory import TheorySolver


class IncrementalSolver:
    """A persistent DPLL(T) context with an assertion stack and assumptions.

    Typical use by the fixpoint solver: assert one clause's hypotheses in a
    scope, test every candidate qualifier against them, retract the scope.
    The instance survives across ``push``/``pop`` cycles; atoms, Tseitin
    variables, learned clauses and theory lemmas accumulated in one cycle
    keep serving the next.

    >>> from repro.logic.expr import Var, ge, lt
    >>> from repro.logic.sorts import INT
    >>> solver = IncrementalSolver({"x": INT})
    >>> solver.push()
    >>> solver.assert_expr(ge(Var("x"), 5))
    >>> solver.check_valid(ge(Var("x"), 0))   # x >= 5 |= x >= 0
    True
    >>> solver.check_valid(lt(Var("x"), 3))   # x >= 5 |/= x < 3 ...
    False
    >>> int(solver.get_model(lt(Var("x"), 3))["x"]) >= 5  # ... witnessed
    True
    >>> solver.pop()
    >>> solver.check_valid(ge(Var("x"), 0))   # hypothesis retracted
    False
    """

    def __init__(
        self,
        sorts: Optional[Dict[str, Sort]] = None,
        max_theory_rounds: int = 5000,
        engine: Optional[str] = None,
    ) -> None:
        self.sorts: Dict[str, Sort] = dict(sorts or {})
        self.max_theory_rounds = max_theory_rounds
        self.engine = engine  # None -> repro.smt.solver.DEFAULT_ENGINE
        self._sat = SatSolver()
        self._pre = _Preprocessor(sorts=self.sorts)
        self._atomizer = _Atomizer(solver=self._sat, sorts=self.sorts)
        # One persistent theory solver serves every check: its tableau,
        # slack rows and atom->bound conversions carry over, so a later
        # check only re-asserts bounds (O(changed rows), no rebuilds).
        self._theory = TheorySolver(self._atomizer.atom_of_var)
        self._frames: List[int] = []  # selector variable per open scope
        self._ackermann_done = 0  # apps already covered by emitted axioms
        # goal-root subset -> selector guarding its joint-refutation clause
        self._refutation_selectors: Dict[frozenset, int] = {}
        # Theory-atom bookkeeping: the theory loop only sends the simplex the
        # atoms of formulas actually in force (global assertions, open
        # scopes, the goal under test), not every atom the solver has ever
        # encoded — otherwise each check would drag the whole history of
        # retired goals into every LIA call.  The atoms of each formula come
        # from its memo entry, so a memo hit still reports them.
        self._global_atoms: Set[int] = set()
        self._frame_atoms: List[Set[int]] = []
        # -- statistics ------------------------------------------------------
        self.checks = 0
        self.assumption_checks = 0
        self.clauses_retained = 0
        self.theory_rounds = 0
        self.total_time = 0.0
        self.theory_propagations = 0
        self.partial_checks = 0
        self.core_shrink_rounds = 0
        self.shrink_budget_hits = 0
        self.explanations = 0
        self.explanation_literals = 0
        self.sat_phase_saving_hits = 0
        self.sat_time = 0.0
        self.theory_time = 0.0

    # -- assertion stack -----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._frames)

    def push(self) -> None:
        """Open a retractable assertion scope."""
        self._frames.append(self._sat.new_var())
        self._frame_atoms.append(set())

    def pop(self) -> None:
        """Retire the innermost scope: its assertions become vacuous."""
        if not self._frames:
            raise SmtError("pop from an empty assertion stack")
        selector = self._frames.pop()
        self._frame_atoms.pop()
        self._sat.add_clause([-selector])

    # -- asserting formulas --------------------------------------------------

    def declare_sorts(self, sorts: Dict[str, Sort]) -> None:
        """Merge sort declarations; conflicting re-declarations are errors."""
        for name, sort in sorts.items():
            known = self.sorts.setdefault(name, sort)
            if known != sort:
                raise SmtError(
                    f"variable {name} re-declared at sort {sort} (was {known})"
                )

    def assert_expr(self, expr: Expr) -> None:
        """Assert ``expr`` in the innermost scope (or globally when no scope
        is open).  The expression must be quantifier-free.

        Each top-level conjunct is asserted on its own, so re-asserting a
        conjunction that lost a conjunct reuses the literals of the rest.
        """
        memo = self._atomizer.memo
        for conjunct in conjuncts_of(expr):
            root = self.literal_for(conjunct)
            atoms = memo[conjunct][1]
            if self._frames:
                self._sat.add_clause([-self._frames[-1], root])
                self._frame_atoms[-1] |= atoms
            else:
                self._sat.add_clause([root])
                self._global_atoms |= atoms

    def literal_for(self, expr: Expr) -> int:
        """The Tseitin literal equivalent to ``expr``, memoised.

        ``expr`` itself goes into the atomizer's memo next to the nodes of
        its preprocessed form, so the same hypothesis or goal re-appearing in
        a later scope or check costs one dictionary lookup, and a new one
        costs only its nodes the solver has not seen before.  Definitional
        clauses are inert until the literal is assumed or asserted.  Side
        conditions (if-then-else definitions) and Ackermann congruence axioms
        are definitional/global facts and are asserted permanently.

        An :class:`SmtError` raised here can leave preprocessor rewrites
        memoised whose side conditions were never asserted, so later answers
        of this solver are unsound: discard the solver after one, as
        :meth:`repro.fixpoint.FixpointSolver._surviving_qualifiers` does.
        """
        memo = self._atomizer.memo
        entry = memo.get(expr)
        if entry is not None:
            return entry[0]
        if sys.getrecursionlimit() < 100000:
            sys.setrecursionlimit(100000)
        if not self.sorts.keys() >= free_vars(expr):
            for name, sort in free_var_sorts(expr).items():
                self.sorts.setdefault(name, sort)
            for name in free_vars(expr):
                self.sorts.setdefault(name, INT)
        try:
            main, side = self._pre.rewrite_split(expr)
            side.extend(self._new_ackermann_axioms())
            # Side parts are asserted permanently, so their atoms are always
            # theory-relevant; the main part's atoms only while it is active.
            for part in side:
                prepared = simplify(part)
                if prepared is TRUE:
                    continue
                literal, atoms = self._atomizer.encode(prepared)
                self._sat.add_clause([literal])
                self._global_atoms |= atoms
            entry = self._atomizer.encode(simplify(main))
        except AtomError as error:
            raise SmtError(str(error)) from error
        memo[expr] = entry
        return entry[0]

    def _new_ackermann_axioms(self) -> List[Expr]:
        """Ackermann congruence axioms for application pairs not yet covered.

        The one-shot preprocessor emits all pairs at the end of its single
        run; here new applications may appear with every assertion, so we
        emit exactly the pairs involving an application first seen since the
        previous assertion.
        """
        apps = self._pre._apps_seen
        axioms = ackermann_axioms(apps, start=self._ackermann_done)
        self._ackermann_done = len(apps)
        return axioms

    # -- checking ------------------------------------------------------------

    def check_sat(self) -> SolverAnswer:
        """Satisfiability of everything asserted in the active scopes."""
        return self._check([], frozenset())

    def check_sat_assuming(
        self, assumptions: Iterable[int], relevant_atoms: Iterable[int] = ()
    ) -> SolverAnswer:
        """Satisfiability under extra assumption literals; nothing is
        permanently asserted.  ``relevant_atoms`` names theory atoms the
        assumed literals' encodings reference (callers assuming a cached
        root literal pass the atoms recorded for that expression)."""
        self.assumption_checks += 1
        return self._check(list(assumptions), frozenset(relevant_atoms))

    def check_valid_detailed(self, goal: Expr) -> SolverAnswer:
        """Decide ``asserted hypotheses |= goal`` without disturbing them.

        The negated goal's root literal is *assumed*, never asserted, so
        consecutive goals never see each other — and a goal re-tested on a
        later visit reuses its original encoding plus every clause the solver
        has learned since.  ``UNSAT`` means the goal is valid; unknown
        answers count as "not proved", matching :func:`repro.smt.is_valid`.
        """
        negated = not_(goal)
        root = self.literal_for(negated)
        return self.check_sat_assuming([root], self._atomizer.memo[negated][1])

    def check_valid(self, goal: Expr) -> bool:
        return self.check_valid_detailed(goal).is_unsat

    def refute_any(self, goals: Iterable[Expr]) -> SolverAnswer:
        """Decide ``asserted hypotheses |= goal_i`` for *all* goals at once.

        ``UNSAT`` certifies every goal implied.  A ``SAT`` answer's model is
        a concrete state satisfying the hypotheses and falsifying at least
        one goal — callers evaluate each goal against it to learn *which*
        (typically many at a time).  The encoding reuses the memoised root
        literal of every goal and adds one selector-guarded clause
        ``sel -> (!g_1 | ... | !g_n)`` per distinct goal subset, so repeat
        queries over shrinking candidate sets cost a dictionary lookup plus
        a warm search — the engine under unsat-core-batched qualifier
        weakening.
        """
        memo = self._atomizer.memo
        roots: List[int] = []
        atoms: Set[int] = set()
        for goal in goals:
            roots.append(self.literal_for(goal))
            atoms |= memo[goal][1]
        key = frozenset(roots)
        selector = self._refutation_selectors.get(key)
        if selector is None:
            selector = self._sat.new_var()
            self._sat.add_clause([-selector] + [-root for root in roots])
            self._refutation_selectors[key] = selector
        return self.check_sat_assuming([selector], atoms)

    def get_model(self, goal: Expr) -> Optional[Dict[str, object]]:
        """A model refuting ``asserted hypotheses |= goal``, if one exists.

        Runs :meth:`check_valid_detailed` and returns the satisfying
        assignment of the refutation (hypotheses plus negated goal) — the
        simplex vertex rounded to integers by branch-and-bound, plus the
        boolean skeleton's choices.  ``None`` when the goal is valid or the
        solver answered *unknown*.  Like every check, nothing is permanently
        asserted, so the model of one goal never constrains the next.
        """
        answer = self.check_valid_detailed(goal)
        if not answer.is_sat or answer.model is None:
            return None
        return dict(answer.model)

    def _check(self, assumptions: List[int], relevant_atoms: frozenset) -> SolverAnswer:
        started = time.perf_counter()
        self.checks += 1
        clauses_before = self._sat.num_clauses
        int_vars = {name for name, sort in self.sorts.items() if sort in (INT, BOOL)}
        # Atoms of formulas in force right now.  Atoms encoded for retired
        # goals or popped scopes may still be assigned by the SAT core, but
        # they constrain nothing active, so feeding them to the simplex would
        # only blow up every theory call (and every conflict explanation).
        active_atoms = self._global_atoms.union(relevant_atoms, *self._frame_atoms)
        try:
            answer = run_theory_loop(
                self._sat,
                self._atomizer,
                int_vars,
                self.max_theory_rounds,
                assumptions=list(self._frames) + assumptions,
                active_atoms=active_atoms,
                theory=self._theory,
                engine=self.engine,
            )
        finally:
            elapsed = time.perf_counter() - started
            self.clauses_retained += self._sat.num_clauses - clauses_before
            self.total_time += elapsed
        stats = answer.stats
        self.theory_rounds += stats.theory_rounds
        self.theory_propagations += stats.theory_propagations
        self.partial_checks += stats.partial_checks
        self.core_shrink_rounds += stats.core_shrink_rounds
        self.shrink_budget_hits += stats.shrink_budget_hits
        self.explanations += stats.explanations
        self.explanation_literals += stats.explanation_literals
        self.sat_phase_saving_hits += stats.sat_phase_saving_hits
        self.sat_time += stats.sat_time
        self.theory_time += stats.theory_time
        record_check_metrics(answer, elapsed, source="incremental")
        return answer

    # -- introspection ---------------------------------------------------------

    def stats_dict(self) -> Dict[str, float]:
        return {
            "checks": self.checks,
            "assumption_checks": self.assumption_checks,
            "clauses_retained": self.clauses_retained,
            "theory_rounds": self.theory_rounds,
            "total_time": self.total_time,
            "theory_propagations": self.theory_propagations,
            "partial_checks": self.partial_checks,
            "core_shrink_rounds": self.core_shrink_rounds,
            "shrink_budget_hits": self.shrink_budget_hits,
            "explanations": self.explanations,
            "explanation_literals": self.explanation_literals,
            "sat_phase_saving_hits": self.sat_phase_saving_hits,
            "sat_time": self.sat_time,
            "theory_time": self.theory_time,
        }
