"""Lazy DPLL(T) building blocks for quantifier-free formulas.

:class:`repro.smt.IncrementalSolver` is the one entry into this stack; it
strings the pieces below together:

1. *Preprocessing* (:class:`_Preprocessor`) — if-then-else lifting,
   Ackermann expansion of uninterpreted function applications, elimination
   of numeric equalities and disequalities into inequalities,
   boolean-equality normalisation.
2. *Propositional abstraction* (:class:`_Atomizer`) — every
   linear-arithmetic atom becomes a SAT variable and every other formula
   node one Tseitin literal (``&&``/``||`` chains as single n-ary nodes),
   memoised per interned node.
3. *Theory loop* (:func:`run_theory_loop`) — the CDCL search checks its
   assignments for theory-consistency with the LIA solver; conflicts come
   back as small explanations which become clauses.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.logic.expr import (
    binop,
    unary,
    App,
    BinOp,
    BoolConst,
    CMP_OPS,
    Expr,
    FALSE,
    Forall,
    IntConst,
    Ite,
    KVar,
    RealConst,
    TRUE,
    UnaryOp,
    Var,
    and_,
    eq,
    implies,
    not_,
    or_,
)
from repro.logic.sorts import BOOL, INT, REAL, Sort
from repro.smt.atoms import (
    AtomError,
    LinearAtom,
    atom_constraint,
    negate_atom,
    normalize_comparison,
)
from repro.smt.lia import check_lia
from repro.smt.result import CheckStats, SatResult, SolverAnswer
from repro.smt.sat import SatSolver
from repro.smt.simplex import Constraint
from repro.smt.theory import TheorySolver, TheoryUnknown, constraint_satisfied


class SmtError(Exception):
    """Raised when a formula falls outside the supported fragment."""


def _split_eq(lhs: Expr, rhs: Expr) -> Expr:
    """Numeric equality as a conjunction of inequalities (equality-atom free)."""
    return and_(binop("<=", lhs, rhs), binop(">=", lhs, rhs))


@dataclass
class _Preprocessor:
    """Rewrites a formula into the skeleton-over-linear-atoms fragment.

    Both rewrites are memoised per preprocessor, so an ``Ite`` term gets one
    fresh variable however often it is met.  That is sound because the
    incremental backend asserts a preprocessor's side conditions
    permanently.
    """

    sorts: Dict[str, Sort]
    side_conditions: List[Expr] = field(default_factory=list)
    _fresh: int = 0
    _app_cache: Dict[Expr, Var] = field(default_factory=dict)
    _apps_seen: List[Tuple[App, Var]] = field(default_factory=list)
    _bool_memo: Dict[Expr, Expr] = field(default_factory=dict)
    _term_memo: Dict[Expr, Expr] = field(default_factory=dict)

    def fresh_var(self, sort: Sort, hint: str) -> Var:
        self._fresh += 1
        name = f"__{hint}{self._fresh}"
        self.sorts[name] = sort
        return Var(name, sort)

    # -- boolean layer ---------------------------------------------------------

    def rewrite_bool(self, expr: Expr) -> Expr:
        rewritten = self._bool_memo.get(expr)
        if rewritten is None:
            rewritten = self._rewrite_bool(expr)
            self._bool_memo[expr] = rewritten
        return rewritten

    def _rewrite_bool(self, expr: Expr) -> Expr:
        if isinstance(expr, BoolConst):
            return expr
        if isinstance(expr, Var):
            if self.sorts.get(expr.name, expr.sort) != BOOL:
                raise SmtError(f"variable {expr.name} used as a formula but is not bool-sorted")
            return expr
        if isinstance(expr, KVar):
            raise SmtError(
                f"unsolved Horn variable ${expr.name} reached the SMT solver; "
                "liquid inference must substitute a solution first"
            )
        if isinstance(expr, Forall):
            raise SmtError(
                "quantified formula reached the quantifier-free solver; "
                "use repro.smt.quant to instantiate it first"
            )
        if isinstance(expr, UnaryOp) and expr.op == "!":
            return not_(self.rewrite_bool(expr.operand))
        if isinstance(expr, Ite):
            return or_(
                and_(self.rewrite_bool(expr.cond), self.rewrite_bool(expr.then)),
                and_(not_(self.rewrite_bool(expr.cond)), self.rewrite_bool(expr.otherwise)),
            )
        if isinstance(expr, App):
            if expr.sort != BOOL:
                raise SmtError(f"non-boolean application {expr} used as a formula")
            return self._name_app(expr)
        if isinstance(expr, BinOp):
            if expr.op in ("&&", "||", "=>", "<=>"):
                lhs = self.rewrite_bool(expr.lhs)
                rhs = self.rewrite_bool(expr.rhs)
                return binop(expr.op, lhs, rhs)
            if expr.op in CMP_OPS:
                return self._rewrite_comparison(expr)
        raise SmtError(f"cannot interpret {expr} as a formula")

    def _rewrite_comparison(self, expr: BinOp) -> Expr:
        lhs_sort = self._term_sort(expr.lhs)
        rhs_sort = self._term_sort(expr.rhs)
        if BOOL in (lhs_sort, rhs_sort):
            lhs = self.rewrite_bool(expr.lhs)
            rhs = self.rewrite_bool(expr.rhs)
            if expr.op == "=":
                return binop("<=>", lhs, rhs)
            if expr.op == "!=":
                return not_(binop("<=>", lhs, rhs))
            raise SmtError(f"ordering comparison on booleans: {expr}")
        lhs = self.rewrite_term(expr.lhs)
        rhs = self.rewrite_term(expr.rhs)
        if expr.op == "=":
            return and_(binop("<=", lhs, rhs), binop(">=", lhs, rhs))
        if expr.op == "!=":
            return or_(binop("<", lhs, rhs), binop(">", lhs, rhs))
        return binop(expr.op, lhs, rhs)

    # -- term layer -------------------------------------------------------------

    def rewrite_term(self, expr: Expr) -> Expr:
        rewritten = self._term_memo.get(expr)
        if rewritten is None:
            rewritten = self._rewrite_term(expr)
            self._term_memo[expr] = rewritten
        return rewritten

    def _rewrite_term(self, expr: Expr) -> Expr:
        if isinstance(expr, (Var, IntConst, RealConst)):
            return expr
        if isinstance(expr, BoolConst):
            return IntConst(1 if expr.value else 0)
        if isinstance(expr, App):
            return self._name_app(expr)
        if isinstance(expr, UnaryOp) and expr.op == "-":
            return unary("-", self.rewrite_term(expr.operand))
        if isinstance(expr, BinOp):
            return binop(expr.op, self.rewrite_term(expr.lhs), self.rewrite_term(expr.rhs))
        if isinstance(expr, Ite):
            cond = self.rewrite_bool(expr.cond)
            then = self.rewrite_term(expr.then)
            otherwise = self.rewrite_term(expr.otherwise)
            result = self.fresh_var(self._term_sort(expr.then), "ite")
            self.side_conditions.append(implies(cond, eq(result, then)))
            self.side_conditions.append(implies(not_(cond), eq(result, otherwise)))
            return result
        raise SmtError(f"cannot interpret {expr} as a numeric term")

    def _term_sort(self, expr: Expr) -> Sort:
        if isinstance(expr, Var):
            return self.sorts.get(expr.name, expr.sort)
        if isinstance(expr, IntConst):
            return INT
        if isinstance(expr, RealConst):
            return REAL
        if isinstance(expr, BoolConst):
            return BOOL
        if isinstance(expr, App):
            return expr.sort
        if isinstance(expr, UnaryOp):
            return BOOL if expr.op == "!" else self._term_sort(expr.operand)
        if isinstance(expr, Ite):
            return self._term_sort(expr.then)
        if isinstance(expr, BinOp):
            if expr.op in CMP_OPS or expr.op in ("&&", "||", "=>", "<=>"):
                return BOOL
            return self._term_sort(expr.lhs)
        if isinstance(expr, (KVar, Forall)):
            return BOOL
        raise SmtError(f"cannot determine the sort of {expr}")

    # -- entry point ----------------------------------------------------------

    def rewrite_split(self, expr: Expr) -> Tuple[Expr, List[Expr]]:
        """Rewrite ``expr`` and drain the side conditions it produced.

        Returns ``(main, side)`` where ``side`` holds the fully rewritten
        if-then-else definitions.  The incremental backend asserts the two
        parts differently (side conditions are global facts, the main part
        is scoped), hence the split.
        """
        main = self.rewrite_bool(expr)
        side: List[Expr] = []
        while self.side_conditions:
            batch, self.side_conditions = self.side_conditions, []
            for condition in batch:
                side.append(self.rewrite_bool(condition))
        return main, side

    # -- Ackermann expansion -----------------------------------------------------

    def _name_app(self, app: App) -> Var:
        rewritten_args = tuple(self.rewrite_term(arg) for arg in app.args)
        normalised = App(app.func, rewritten_args, app.sort)
        cached = self._app_cache.get(normalised)
        if cached is not None:
            return cached
        result = self.fresh_var(app.sort, f"app_{app.func}_")
        self._app_cache[normalised] = result
        self._apps_seen.append((normalised, result))
        return result


def ackermann_axioms(apps_seen: List[Tuple[App, Var]], start: int) -> List[Expr]:
    """Congruence axioms for the same-function application pairs that
    involve an application at index ``start`` or later, the ones not yet
    covered by earlier axioms."""
    axioms: List[Expr] = []
    for index in range(max(start, 1), len(apps_seen)):
        app_b, var_b = apps_seen[index]
        for app_a, var_a in itertools.islice(apps_seen, index):
            if app_a.func != app_b.func or len(app_a.args) != len(app_b.args):
                continue
            args_equal = and_(*[_split_eq(x, y) for x, y in zip(app_a.args, app_b.args)])
            if app_a.sort == BOOL:
                axioms.append(implies(args_equal, binop("<=>", var_a, var_b)))
            else:
                axioms.append(implies(args_equal, _split_eq(var_a, var_b)))
    return axioms


_NO_ATOMS: FrozenSet[int] = frozenset()


@dataclass
class _Atomizer:
    """Tseitin-encodes preprocessed formulas into one SAT solver.

    Theory atoms and boolean variables become SAT variables; every other
    node becomes one literal defined by clauses that stay inert until the
    literal is used.  ``memo`` maps each interned node encoded so far to its
    literal and to the theory-atom variables its encoding references, so a
    node costs one dictionary lookup after its first encoding, and the
    incremental backend can hand the simplex exactly the atoms of the
    formulas in force.
    """

    solver: SatSolver
    sorts: Dict[str, Sort]
    atom_of_var: Dict[int, LinearAtom] = field(default_factory=dict)
    bool_var_of_name: Dict[str, int] = field(default_factory=dict)
    memo: Dict[Expr, Tuple[int, FrozenSet[int]]] = field(default_factory=dict)
    _atom_cache: Dict[LinearAtom, int] = field(default_factory=dict)

    def encode(self, expr: Expr) -> Tuple[int, FrozenSet[int]]:
        """``(literal, atom variables)`` for ``expr``, memoised."""
        entry = self.memo.get(expr)
        if entry is None:
            entry = self._encode_node(expr)
            self.memo[expr] = entry
        return entry

    def _encode_node(self, expr: Expr) -> Tuple[int, FrozenSet[int]]:
        if isinstance(expr, BinOp):
            op = expr.op
            if op in CMP_OPS:
                var = self._atom_var(expr)
                return var, frozenset((var,))
            if op == "&&" or op == "||":
                return self._encode_chain(expr)
            if op == "=>" or op == "<=>":
                lhs, lhs_atoms = self.encode(expr.lhs)
                rhs, rhs_atoms = self.encode(expr.rhs)
                if op == "=>":
                    return self._gate("||", [-lhs, rhs]), lhs_atoms | rhs_atoms
                fresh = self.solver.new_var()
                # fresh <-> (lhs <-> rhs)
                for clause in (
                    [-fresh, -lhs, rhs],
                    [-fresh, lhs, -rhs],
                    [fresh, lhs, rhs],
                    [fresh, -lhs, -rhs],
                ):
                    self.solver.add_clause(clause)
                return fresh, lhs_atoms | rhs_atoms
        elif isinstance(expr, UnaryOp):
            if expr.op == "!":
                literal, atoms = self.encode(expr.operand)
                return -literal, atoms
        elif isinstance(expr, Var):
            return self._bool_var(expr.name), _NO_ATOMS
        elif expr is TRUE:
            fresh = self.solver.new_var()
            self.solver.add_clause([fresh])
            return fresh, _NO_ATOMS
        elif expr is FALSE:
            return -self.encode(TRUE)[0], _NO_ATOMS
        raise SmtError(f"unexpected formula node after preprocessing: {expr}")

    def _encode_chain(self, expr: BinOp) -> Tuple[int, FrozenSet[int]]:
        """A whole ``&&``/``||`` chain as one n-ary node.

        The chain is walked with an explicit stack and flattened down to the
        nodes the memo already holds, which keep their literal: a conjunction
        that drops one conjunct of an encoded one costs one variable, not a
        new definition for every node above the dropped conjunct.
        """
        op = expr.op
        memo = self.memo
        literals: List[int] = []
        atoms: Set[int] = set()
        stack = [expr.rhs, expr.lhs]
        while stack:
            node = stack.pop()
            if isinstance(node, BinOp) and node.op == op and node not in memo:
                stack.append(node.rhs)
                stack.append(node.lhs)
                continue
            literal, node_atoms = self.encode(node)
            literals.append(literal)
            atoms |= node_atoms
        return self._gate(op, literals), frozenset(atoms)

    def _gate(self, op: str, literals: List[int]) -> int:
        """A literal equivalent to the ``&&`` or ``||`` of ``literals``:
        one fresh variable and k+1 clauses for k distinct literals."""
        literals = list(dict.fromkeys(literals))
        if len(literals) == 1:
            return literals[0]
        fresh = self.solver.new_var()
        add = self.solver.add_clause
        if op == "&&":
            for literal in literals:
                add([-fresh, literal])
            add([fresh] + [-literal for literal in literals])
        else:
            for literal in literals:
                add([fresh, -literal])
            add([-fresh] + literals)
        return fresh

    def _bool_var(self, name: str) -> int:
        var = self.bool_var_of_name.get(name)
        if var is None:
            var = self.solver.new_var()
            self.bool_var_of_name[name] = var
        return var

    def _atom_var(self, expr: BinOp) -> int:
        atom = normalize_comparison(expr.op, expr.lhs, expr.rhs, self.sorts)
        var = self._atom_cache.get(atom)
        if var is None:
            var = self.solver.new_var()
            self._atom_cache[atom] = var
            self.atom_of_var[var] = atom
        return var


def _negate_atom(atom: LinearAtom) -> LinearAtom:
    """Atom negation, with fragment violations reported as :class:`SmtError`."""
    try:
        return negate_atom(atom)
    except AtomError as error:
        raise SmtError(str(error)) from error


DEFAULT_ENGINE = "online"
"""SAT↔theory integration used when callers do not pick one explicitly.

``"online"`` is the DPLL(T) engine: the theory solver lives inside the CDCL
search (partial-assignment checks, theory propagation, minimized conflict
explanations).  ``"offline"`` is the historical lazy loop — enumerate a
complete propositional model, check the full atom set, add one blocking
clause, repeat — kept as the differential-testing oracle.
"""


def run_theory_loop(
    sat: SatSolver,
    atomizer: _Atomizer,
    int_vars: Set[str],
    max_theory_rounds: int,
    assumptions: Sequence[int],
    active_atoms: Set[int],
    theory: TheorySolver,
    engine: Optional[str] = None,
) -> SolverAnswer:
    """Run one satisfiability check of an :class:`repro.smt.IncrementalSolver`
    through the SAT↔theory interface.

    ``active_atoms`` restricts theory reasoning to the atom variables of the
    formulas currently in force, so retired state never reaches the simplex.
    ``theory`` is the solver's persistent
    :class:`~repro.smt.theory.TheorySolver` (tableau, slack rows, bound
    conversions), kept across checks.  Learned clauses and theory lemmas are
    consequences of the clause database alone (assumptions live on their own
    decision levels), so retaining them permanently is sound.
    """
    chosen = engine or DEFAULT_ENGINE
    if chosen == "online":
        return _run_online(
            sat, atomizer, int_vars, max_theory_rounds, assumptions, active_atoms, theory
        )
    if chosen == "offline":
        return _run_offline(
            sat, atomizer, int_vars, max_theory_rounds, assumptions, active_atoms
        )
    raise SmtError(f"unknown SMT engine {chosen!r}")


def _run_online(
    sat: SatSolver,
    atomizer: _Atomizer,
    int_vars: Set[str],
    max_theory_rounds: int,
    assumptions: Sequence[int],
    active_atoms: Set[int],
    theory: TheorySolver,
) -> SolverAnswer:
    """Online DPLL(T): one CDCL search with the theory solver inside it."""
    # The clock starts before ``begin_check``: ``finish_check`` charges its
    # time to ``theory_time``, which is subtracted from the total below.
    started = time.perf_counter()
    # ``begin_check`` zeroes the theory solver's typed per-check record;
    # ``finish_check`` completes and returns it — no snapshot/diff dance.
    theory.begin_check(active_atoms, int_vars, max_theory_rounds)
    sat.attach_theory(theory)
    unknown_reason: Optional[str] = None
    assignment: Optional[Dict[int, bool]] = None
    try:
        assignment = sat.solve(assumptions)
    except TheoryUnknown as exc:
        unknown_reason = str(exc)
    except AtomError as error:
        raise SmtError(str(error)) from error
    finally:
        sat.detach_theory()
        total = time.perf_counter() - started
        stats = theory.finish_check()
        stats.engine = "online"
        stats.sat_time = max(0.0, total - stats.theory_time)
        stats.sat_conflicts = sat.solve_conflicts
        stats.sat_decisions = sat.solve_decisions
        stats.sat_propagations = sat.solve_propagations
        stats.sat_phase_saving_hits = sat.solve_phase_saving_hits
    if unknown_reason is not None:
        return SolverAnswer(SatResult.UNKNOWN, reason=unknown_reason, stats=stats)
    if assignment is None:
        return SolverAnswer(SatResult.UNSAT, stats=stats)
    if sat.verify_models:
        assert theory.verify_model(), "internal error: theory model violates asserted atoms"
    model, full = _model_from_assignment(assignment, atomizer, theory.model())
    return SolverAnswer(SatResult.SAT, model=model, stats=stats, full_model=full)


def _run_offline(
    sat: SatSolver,
    atomizer: _Atomizer,
    int_vars: Set[str],
    max_theory_rounds: int,
    assumptions: Sequence[int],
    active_atoms: Set[int],
) -> SolverAnswer:
    """The historical lazy loop: complete models, full-set checks, blocking
    clauses.  Kept verbatim as the oracle the online engine is differentially
    tested against."""
    stats = CheckStats(engine="offline")
    started = time.perf_counter()
    conflicts_at_start = sat.num_conflicts
    decisions_at_start = sat.num_decisions
    propagations_at_start = sat.num_propagations

    def finish() -> CheckStats:
        stats.sat_conflicts = sat.num_conflicts - conflicts_at_start
        stats.sat_decisions = sat.num_decisions - decisions_at_start
        stats.sat_propagations = sat.num_propagations - propagations_at_start
        # The offline loop has no instrumented theory side; charge the whole
        # wall clock to the SAT column rather than inventing a split.
        stats.sat_time = time.perf_counter() - started
        return stats

    # The atom table is fixed for the duration of the loop (blocking clauses
    # only reuse existing variables), so the relevant items are computed once.
    atom_items = [
        (var, atomizer.atom_of_var[var])
        for var in sorted(active_atoms)
        if var in atomizer.atom_of_var
    ]
    for _ in range(max_theory_rounds):
        assignment = sat.solve(assumptions)
        if assignment is None:
            return SolverAnswer(SatResult.UNSAT, stats=finish())
        stats.theory_rounds += 1

        constraints: List[Constraint] = []
        constraint_literal: List[int] = []
        for var, atom in atom_items:
            value = assignment.get(var)
            if value is None:
                continue
            chosen = atom if value else _negate_atom(atom)
            constraints.append(atom_constraint(chosen))
            constraint_literal.append(var if value else -var)

        if not constraints:
            model, full = _model_from_assignment(assignment, atomizer, {})
            return SolverAnswer(SatResult.SAT, model=model, stats=finish(), full_model=full)

        lia_result = check_lia(constraints, int_vars)
        if lia_result.status == "sat":
            theory_model = lia_result.model or {}
            if sat.verify_models:
                assert all(
                    constraint_satisfied(constraint, theory_model)
                    for constraint in constraints
                ), "internal error: LIA model violates chosen constraints"
            model, full = _model_from_assignment(assignment, atomizer, theory_model)
            return SolverAnswer(SatResult.SAT, model=model, stats=finish(), full_model=full)
        if lia_result.status == "unknown":
            return SolverAnswer(
                SatResult.UNKNOWN,
                reason="integer branch-and-bound budget exhausted",
                stats=finish(),
            )
        conflict_indices = lia_result.conflict or set(range(len(constraints)))
        blocking = [-constraint_literal[index] for index in sorted(conflict_indices)]
        if not sat.add_clause(blocking):
            return SolverAnswer(SatResult.UNSAT, stats=finish())

    return SolverAnswer(
        SatResult.UNKNOWN, reason="theory-refinement round budget exhausted", stats=finish()
    )


def _model_from_assignment(
    assignment: Dict[int, bool],
    atomizer: _Atomizer,
    theory_model: Dict[str, Fraction],
) -> Tuple[Dict[str, Fraction], Dict[str, Fraction]]:
    """Returns ``(model, full_model)``: the user-facing model without
    internal ``__``-prefixed names, and the complete valuation."""
    full: Dict[str, Fraction] = dict(theory_model)
    for name, var in atomizer.bool_var_of_name.items():
        full[name] = Fraction(1 if assignment.get(var, False) else 0)
    model = {name: value for name, value in full.items() if not name.startswith("__")}
    return model, full
