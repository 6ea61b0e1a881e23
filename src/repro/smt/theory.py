"""Online theory solver for the DPLL(T) engine.

The offline lazy loop enumerated *complete* propositional models and handed
the full atom set to a from-scratch LIA check.  This module is the online
replacement: a :class:`TheorySolver` sits inside the CDCL search (via
:meth:`repro.smt.sat.SatSolver.attach_theory`) and

* **asserts atoms as they are assigned** — each atom literal becomes one or
  two bound tightenings on a :class:`repro.smt.simplex.BacktrackableSimplex`
  whose slack definitions persist across checks, so asserting/retracting
  costs O(changed bounds), never a tableau rebuild;
* **checks partial assignments** — a rational feasibility check runs before
  every SAT decision, so theory conflicts surface long before a model is
  complete;
* **propagates theory-implied literals** — when a bound on a tableau
  variable tightens past another registered atom's bound, that atom's truth
  value is implied; it is enqueued with a one-literal *theory reason* and
  becomes a propagation in the SAT core instead of a decision to be
  rediscovered and refuted;
* **explains conflicts with irreducible simplex cores** — a clash between
  two bounds, or a violated row's bound plus the blocking bound of every
  nonbasic variable in it.  Such a core is a Farkas combination,
  irreducible over the rationals, so it passes through unchanged; drop-one
  shrinking (re-checking each ``core - {lit}`` with a bounded LIA call)
  runs only on the full asserted-atom set that branch-and-bound falls back
  to when every refutation leaned on a branching cut;
* **decides integers at the end** — branch-and-bound runs on the live
  tableau only at full assignments, sharing all pivoting work with the
  search instead of re-deriving it per candidate model.

The solver is persistent: one instance serves every check of an
:class:`repro.smt.IncrementalSolver`, with :meth:`begin_check` re-arming the
per-check state (active-atom mask, integer sorts, round budget) while the
tableau, slack definitions and bound conversions carry over.  Slack rows
that no active atom can bound are retired for the check and rebuilt on
demand (see :meth:`BacktrackableSimplex.retire_rows`).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Set, Tuple

from repro import faults
from repro.smt.atoms import AtomError, LinearAtom, atom_constraint, negate_atom
from repro.smt.lia import check_lia
from repro.smt.result import CheckStats
from repro.smt.simplex import (
    INTERNAL_ORIGIN,
    BacktrackableSimplex,
    Constraint,
    DeltaRational,
    Rational,
    exact_div,
)


class TheoryUnknown(Exception):
    """The theory solver exhausted a budget; the answer is *unknown*."""


#: Explanations below this size are already cheap to learn from; above the
#: upper limit drop-one shrinking costs more LIA work than the smaller
#: clause saves.
SHRINK_MIN_LITERALS = 4
SHRINK_MAX_LITERALS = 48
#: Branch-and-bound nodes per drop-one LIA call.
SHRINK_NODE_BUDGET = 400
#: Per-check budget of drop-one shrink rounds.  Each round is a from-scratch
#: bounded LIA check, so an adversarial conflict stream could otherwise let
#: minimisation dominate theory time; unlike the round budget it merely
#: degrades explanation minimality instead of raising :class:`TheoryUnknown`.
SHRINK_BUDGET = 128
#: Branch-and-bound nodes per final check before the answer is *unknown*.
MAX_FINAL_NODES = 2000


def _injected_bug() -> str:
    """The fault-injection flag for the fuzz harness's self-test.

    ``REPRO_INJECT_THEORY_BUG=strict-bounds`` makes the *online* solver
    admit every single-variable upper bound one unit too wide — undoing the
    front end's integer tightening of strict comparisons (``x < c`` reaches
    the solver as ``x <= c - 1``), so a strict hypothesis like a loop guard
    or a ``v < n`` index precondition silently weakens to its non-strict
    form.  The offline engine converts atoms through ``check_lia`` directly
    and is unaffected, so online-vs-offline differential oracles must
    diverge on programs whose obligations hinge on a strict bound.  This
    exists solely so the fuzz harness can prove, in CI, that it still
    catches and minimises a real solver bug; nothing in the production
    pipeline sets the variable.
    """
    return os.environ.get("REPRO_INJECT_THEORY_BUG", "")


_Bounds = Tuple[Tuple[str, bool, DeltaRational], ...]


class TheorySolver:
    """Backtrackable LIA theory state shared by one SAT core."""

    def __init__(self, atom_of_var: Dict[int, LinearAtom]) -> None:
        # Shared with the atomizer and grows in place as new atoms are encoded.
        self._atom_of_var = atom_of_var
        self._simplex = BacktrackableSimplex()
        self._shrink_rounds_left = SHRINK_BUDGET
        # literal -> bound tightenings ((tableau var, is_upper, value), ...)
        self._bounds_of_lit: Dict[int, _Bounds] = {}
        # literal -> source-level variables of its linear term; the union
        # over asserted literals bounds model extraction and branching
        self._vars_of_lit: Dict[int, Tuple[str, ...]] = {}
        # literal -> truth value of a variable-free atom
        self._ground_truth: Dict[int, bool] = {}
        # tableau var -> [(literal, is_upper, value)] for theory propagation
        self._atoms_on_var: Dict[str, List[Tuple[int, bool, DeltaRational]]] = {}
        self._registered: Set[int] = set()
        # assertion stack: (literal, SAT trail position, simplex trail mark)
        self._stack: List[Tuple[int, int, int]] = []
        #: pending (implied literal, reason literals) pairs; the SAT core
        #: peeks at this attribute directly so the no-propagation fast path
        #: costs one attribute read instead of a call per trail literal
        self.propagation_queue: List[Tuple[int, Tuple[int, ...]]] = []
        self._active: Optional[Set[int]] = None
        self._int_vars: Set[str] = set()
        self._rounds = 0
        self._max_rounds = 0
        self.last_model: Optional[Dict[str, Rational]] = None
        # -- statistics ------------------------------------------------------
        # Cumulative lifetime counters (kept for introspection/debugging)...
        self.theory_propagations = 0
        self.partial_checks = 0
        self.final_checks = 0
        self.core_shrink_rounds = 0
        self.shrink_budget_hits = 0
        self.explanations = 0
        self.explanation_literals = 0
        self.time_spent = 0.0
        # ...plus the typed per-check record: zeroed in :meth:`begin_check`,
        # completed and handed to the caller by :meth:`finish_check`.  This
        # replaces the old snapshot-and-diff protocol.
        self.check = CheckStats()
        self._explanation_sizes: List[int] = []
        self._pivots_at_begin = 0
        self._time_at_begin = 0.0

    def watched_vars(self) -> Dict[int, LinearAtom]:
        """The live atom-variable mapping (shared; the SAT core filters on it)."""
        return self._atom_of_var

    # -- per-check lifecycle -------------------------------------------------

    def begin_check(
        self,
        active_atoms: Optional[Set[int]],
        int_vars: Set[str],
        max_rounds: int,
    ) -> None:
        """Arm the solver for one satisfiability check.

        Retracts every assertion left over from the previous check (the
        level-0 trail is re-fed by the SAT core under the *current* activity
        mask) but keeps the tableau, slack definitions and bound
        conversions; rows that no active atom can bound are retired.
        """
        # Chaos site: the generalised successor of REPRO_INJECT_THEORY_BUG —
        # a planned hang/OOM/slow-io fires at the entry of every theory
        # check, under whatever deadline the execution layer armed.
        faults.inject("theory.check")
        self.check = CheckStats()
        self._explanation_sizes = []
        self._pivots_at_begin = self._simplex.pivots
        self._time_at_begin = self.time_spent
        started = time.perf_counter()
        self.shrink_to_trail(0)
        self._shrink_rounds_left = SHRINK_BUDGET
        self._active = set(active_atoms) if active_atoms is not None else None
        self._int_vars = set(int_vars)
        self._rounds = 0
        self._max_rounds = max_rounds
        self.last_model = None
        self._simplex.retire_rows(self._register_active())
        self.time_spent += time.perf_counter() - started

    def shrink_to_trail(self, trail_length: int) -> None:
        """Retract every assertion made at SAT trail position >= ``trail_length``."""
        stack = self._stack
        simplex = self._simplex
        while stack and stack[-1][1] >= trail_length:
            _, _, mark = stack.pop()
            simplex.undo_to(mark)
        # Pending propagations and tightening events refer to retracted
        # bounds; both are only meaningful within one propagation cycle.
        self.propagation_queue.clear()
        simplex.tightened.clear()

    # -- atom registration ---------------------------------------------------

    def _register_active(self) -> Set[str]:
        """Make both polarities of every active atom propagation-visible.

        Returns the tableau variables the active atoms can bound.
        """
        atom_vars = self._active if self._active is not None else self._atom_of_var.keys()
        bounds_of_lit = self._bounds_of_lit
        in_force: Set[str] = set()
        for var in atom_vars:
            if var not in self._atom_of_var:
                continue
            if var not in self._registered:
                self._registered.add(var)
                for lit in (var, -var):
                    try:
                        bounds = self._literal_bounds(lit)
                    except AtomError:
                        continue  # e.g. the negation of an equality atom
                    if len(bounds) == 1:
                        svar, is_upper, value = bounds[0]
                        self._atoms_on_var.setdefault(svar, []).append((lit, is_upper, value))
            for lit in (var, -var):
                for svar, _, _ in bounds_of_lit.get(lit, ()):
                    in_force.add(svar)
        return in_force

    def _literal_bounds(self, lit: int) -> _Bounds:
        cached = self._bounds_of_lit.get(lit)
        if cached is not None:
            return cached
        atom = self._atom_of_var[lit if lit > 0 else -lit]
        if lit < 0:
            atom = negate_atom(atom)
        bounds = self._atom_bounds(lit, atom)
        self._bounds_of_lit[lit] = bounds
        self._vars_of_lit[lit] = tuple(name for name, _ in atom.term.coeffs)
        return bounds

    def _atom_bounds(self, lit: int, atom: LinearAtom) -> _Bounds:
        coeffs = atom.term.coeff_map()
        const = atom.term.const
        strict = atom.op == "<"
        if not coeffs:
            if atom.op == "=":
                holds = const == 0
            else:
                holds = const < 0 if strict else const <= 0
            self._ground_truth[lit] = bool(holds)
            return ()
        if len(coeffs) == 1:
            # coeff * x <op> -const: divide through, flipping on negative coeff
            ((name, coeff),) = coeffs.items()
            svar = self._simplex.term_var({name: 1})
            limit = exact_div(-const, coeff)
            if atom.op == "=":
                value = DeltaRational(limit)
                return ((svar, True, value), (svar, False, value))
            is_upper = coeff > 0
            if is_upper and _injected_bug() == "strict-bounds":
                # Un-tightens the front end's integer conversion of strict
                # comparisons (`x < c` arrives here as `x <= c - 1`): every
                # single-variable upper bound is admitted one too wide.
                limit = limit + 1
            eps = 0 if not strict else (-1 if is_upper else 1)
            return ((svar, is_upper, DeltaRational(limit, eps)),)
        svar = self._simplex.term_var(coeffs)
        if atom.op == "=":
            value = DeltaRational(-const)
            return ((svar, True, value), (svar, False, value))
        limit = -const
        if _injected_bug() == "strict-bounds":
            # Same widening as the single-variable case: the slack row's
            # upper bound admits one more than the tightened atom allows.
            limit = limit + 1
        return ((svar, True, DeltaRational(limit, -1 if strict else 0)),)

    def _is_active(self, var: int) -> bool:
        return self._active is None or var in self._active

    # -- assertion / retraction ---------------------------------------------

    def assert_literal(self, lit: int, trail_position: int) -> Optional[List[int]]:
        """Assert one trail literal; returns a conflict explanation or ``None``.

        Non-atom literals (Tseitin variables, selectors) and atoms outside
        the activity mask are ignored.  A conflict explanation is a list of
        currently-true literals whose conjunction is theory-infeasible.
        """
        var = lit if lit > 0 else -lit
        if var not in self._atom_of_var or not self._is_active(var):
            return None
        started = time.perf_counter()
        try:
            bounds = self._literal_bounds(lit)
            self._stack.append((lit, trail_position, self._simplex.mark()))
            if not bounds:
                if not self._ground_truth.get(lit, True):
                    return self._finish_explanation([lit])
                return None
            for svar, is_upper, value in bounds:
                conflict = self._simplex.assert_bound(svar, is_upper, value, lit)
                if conflict is not None:
                    return self._finish_explanation(sorted(conflict))
            self._scan_tightened()
            return None
        finally:
            self.time_spent += time.perf_counter() - started

    def drain_propagations(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """Theory-implied literals with their reasons, emptying the queue."""
        if not self.propagation_queue:
            return []
        pending = self.propagation_queue
        self.propagation_queue = []
        self.theory_propagations += len(pending)
        self.check.theory_propagations += len(pending)
        return pending

    def _scan_tightened(self) -> None:
        """Turn fresh bound tightenings into implied-atom propagations."""
        simplex = self._simplex
        events = simplex.tightened
        if not events:
            return
        simplex.tightened = []
        queue = self.propagation_queue
        for name, is_upper in events:
            entries = self._atoms_on_var.get(name)
            if not entries:
                continue
            bound = simplex.upper_bound(name) if is_upper else simplex.lower_bound(name)
            if bound is None or bound.origin == INTERNAL_ORIGIN:
                continue
            value = bound.value
            origin = bound.origin
            for lit, entry_upper, entry_value in entries:
                if entry_upper is not is_upper or lit == origin:
                    continue
                if not self._is_active(lit if lit > 0 else -lit):
                    continue
                # upper(x) <= v implies every atom "x <= v'" with v' >= v;
                # dually for lower bounds.
                implied = value <= entry_value if is_upper else value >= entry_value
                if implied:
                    queue.append((lit, (origin,)))

    # -- checks --------------------------------------------------------------

    def partial_check(self) -> Optional[List[int]]:
        """Rational feasibility of the current partial assignment."""
        started = time.perf_counter()
        try:
            self.partial_checks += 1
            self.check.partial_checks += 1
            conflict = self._simplex.feasible()
            if conflict is None:
                return None
            return self._finish_explanation(sorted(conflict))
        finally:
            self.time_spent += time.perf_counter() - started

    def final_check(self) -> Optional[List[int]]:
        """Integer feasibility at a full assignment (branch-and-bound).

        ``None`` means satisfiable, with the integer model left in
        :attr:`last_model`.  Raises :class:`TheoryUnknown` when the node
        budget runs out.
        """
        started = time.perf_counter()
        try:
            self.final_checks += 1
            self.check.final_checks += 1
            self._bump_round()
            simplex = self._simplex
            # Only variables of currently-asserted atoms matter: stale vars
            # from retired checks are unconstrained, so branching on them or
            # reporting their vertex values would be pure waste.
            relevant: Set[str] = set()
            for lit, _, _ in self._stack:
                relevant.update(self._vars_of_lit.get(lit, ()))
            relevant_ints = self._int_vars & relevant
            self._snap_free_int_values(relevant_ints)
            status, explanation, model, _ = simplex.check_integer(
                relevant_ints, MAX_FINAL_NODES, model_names=relevant
            )
            simplex.tightened.clear()  # branch-bound events are not propagatable
            if status == "unknown":
                raise TheoryUnknown("integer branch-and-bound budget exhausted")
            if status == "sat":
                self.last_model = model
                return None
            if explanation is None:
                # Every refutation leaned on a branching cut: the only
                # certified core is the full asserted-atom set; drop-one
                # shrinking recovers a small clause when one exists.
                fallback = sorted({lit for lit, _, _ in self._stack})
                return self._finish_explanation(fallback, shrink=True)
            return self._finish_explanation(sorted(explanation))
        finally:
            self.time_spent += time.perf_counter() - started

    def _snap_free_int_values(self, int_vars: Set[str]) -> None:
        """Reset unconstrained integer variables to integral values.

        The tableau is persistent, so a variable constrained in an earlier
        check may sit at a stale fractional vertex while carrying no bounds
        now; without this pass branch-and-bound would waste nodes (and
        certified explanations) branching on variables nothing constrains.
        """
        self._simplex.snap_unbounded_ints_to_zero(int_vars)

    def model(self) -> Dict[str, Rational]:
        return dict(self.last_model or {})

    # -- explanations --------------------------------------------------------

    def _bump_round(self) -> None:
        self._rounds += 1
        if self._max_rounds and self._rounds > self._max_rounds:
            raise TheoryUnknown("theory-refinement round budget exhausted")

    def _finish_explanation(self, lits: List[int], shrink: bool = False) -> List[int]:
        """Count one conflict explanation; drop-one shrink it if asked.

        Simplex cores (a bound clash, or one row's bounds) are irreducible
        over the rationals: the row's nonbasic variables are independent, so
        dropping any bound lets the row be satisfied.  Drop-one over the
        integers could then only succeed through integrality, so only the
        branch-and-bound fallback asks for it.
        """
        self._bump_round()
        lits = [lit for lit in lits if lit != INTERNAL_ORIGIN]
        if shrink and SHRINK_MIN_LITERALS <= len(lits) <= SHRINK_MAX_LITERALS:
            lits = self._shrink(lits)
        self.explanations += 1
        self.explanation_literals += len(lits)
        self.check.explanations += 1
        self.check.explanation_literals += len(lits)
        self._explanation_sizes.append(len(lits))
        return lits

    def _shrink(self, lits: List[int]) -> List[int]:
        """Drop-one core minimisation of a branch-and-bound fallback core.

        Each drop-one round spends one unit of the per-check shrink budget;
        once exhausted, remaining cores pass through unshrunk (sound, merely
        less minimal) and the truncation is counted in
        ``check.shrink_budget_hits``.
        """
        budget = self._shrink_rounds_left
        if budget <= 0:
            self.shrink_budget_hits += 1
            self.check.shrink_budget_hits += 1
            return lits
        constraints: Dict[int, Constraint] = {}
        for lit in lits:
            try:
                constraints[lit] = self._lit_constraint(lit)
            except AtomError:
                return lits  # cannot re-check subsets; keep the original core
        essential = list(lits)
        for lit in lits:
            if len(essential) <= 2:
                break
            if budget <= 0:
                self.shrink_budget_hits += 1
                self.check.shrink_budget_hits += 1
                break
            budget -= 1
            trial = [constraints[other] for other in essential if other != lit]
            self.core_shrink_rounds += 1
            self.check.core_shrink_rounds += 1
            result = check_lia(trial, self._int_vars, max_nodes=SHRINK_NODE_BUDGET)
            if result.status == "unsat":
                essential.remove(lit)
        self._shrink_rounds_left = budget
        return essential

    def _lit_constraint(self, lit: int) -> Constraint:
        atom = self._atom_of_var[lit if lit > 0 else -lit]
        if lit < 0:
            atom = negate_atom(atom)
        return atom_constraint(atom)

    # -- introspection -------------------------------------------------------

    def asserted_literals(self) -> List[int]:
        return [lit for lit, _, _ in self._stack]

    def verify_model(self) -> bool:
        """Whether the last model satisfies every asserted atom (integrally)."""
        model = self.model()
        for lit in self.asserted_literals():
            try:
                constraint = self._lit_constraint(lit)
            except AtomError:
                continue
            if not constraint_satisfied(constraint, model):
                return False
        return all(
            model[name].denominator == 1 for name in self._int_vars if name in model
        )

    def finish_check(self) -> CheckStats:
        """Complete and return the per-check record armed by :meth:`begin_check`.

        Fills in the fields only known at the end of a check: the simplex
        pivot delta (the :mod:`repro.smt.simplex` tableau counts pivots
        cumulatively across its lifetime), the theory-time delta, the
        explanation-size trace, and the derived round count (final checks
        plus conflict explanations, matching the historical definition).
        """
        check = self.check
        check.simplex_pivots = self._simplex.pivots_since(self._pivots_at_begin)
        check.theory_time = self.time_spent - self._time_at_begin
        check.explanation_sizes = tuple(self._explanation_sizes)
        check.theory_rounds = check.final_checks + check.explanations
        return check


def constraint_satisfied(
    constraint: Constraint, model: Dict[str, Rational]
) -> bool:
    """Whether ``model`` (missing variables default to 0) satisfies the constraint."""
    total: Rational = 0
    for name, coeff in constraint.coeffs.items():
        total += coeff * model.get(name, 0)
    if constraint.op == "<=":
        return total <= constraint.bound
    if constraint.op == "<":
        return total < constraint.bound
    if constraint.op == ">=":
        return total >= constraint.bound
    if constraint.op == ">":
        return total > constraint.bound
    return total == constraint.bound
