"""Tests for the Tseitin encoder (``repro.smt.solver._Atomizer.encode``).

Every formula shape is checked for *equivalence*, not just
equisatisfiability: under each assignment of the input variables the root
literal must be forced to the formula's truth value, as computed by the
truth-table evaluator below.  The per-solver memo is checked to reuse
literals without changing what they mean, the n-ary chain encoding for its
variable and clause counts, and the incremental backend for what the memo
must keep doing on a hit: minting nothing and still reporting the theory
atoms of what it encoded.
"""

import itertools
import sys

import pytest

from repro.logic.expr import (
    FALSE,
    TRUE,
    BoolConst,
    Ite,
    KVar,
    UnaryOp,
    Var,
    and_,
    binop,
    ge,
    implies,
    le,
    lt,
    not_,
    or_,
    unary,
)
from repro.logic.sorts import BOOL, INT
from repro.smt import IncrementalSolver, SmtError
from repro.smt.sat import SatSolver
from repro.smt.solver import _Atomizer

NUM_INPUTS = 3
P1, P2, P3 = (Var(f"p{index}", BOOL) for index in range(1, NUM_INPUTS + 1))
INPUTS = (P1, P2, P3)


@pytest.fixture(autouse=True)
def _verify_models():
    SatSolver.verify_models = True
    yield
    SatSolver.verify_models = False


def _evaluate(formula, assignment):
    """Truth value of a boolean formula over ``INPUTS`` (name -> bool)."""
    if isinstance(formula, Var):
        return assignment[formula.name]
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, UnaryOp) and formula.op == "!":
        return not _evaluate(formula.operand, assignment)
    lhs = _evaluate(formula.lhs, assignment)
    rhs = _evaluate(formula.rhs, assignment)
    return {
        "&&": lhs and rhs,
        "||": lhs or rhs,
        "=>": (not lhs) or rhs,
        "<=>": lhs == rhs,
    }[formula.op]


def _inputs_atomizer(solver=None):
    """An atomizer whose input variables are SAT variables 1..NUM_INPUTS."""
    atomizer = _Atomizer(solver=solver or SatSolver(), sorts={})
    for variable in INPUTS:
        atomizer.encode(variable)
    return atomizer


def _sharing_atomizer(atomizer):
    """A second atomizer on the same solver and inputs, with an empty memo."""
    return _Atomizer(
        solver=atomizer.solver, sorts={}, bool_var_of_name=atomizer.bool_var_of_name
    )


def _assert_root_equivalent(solver, root, formula):
    for bits in itertools.product([False, True], repeat=NUM_INPUTS):
        assignment = {variable.name: bit for variable, bit in zip(INPUTS, bits)}
        inputs = [index if bit else -index for index, bit in enumerate(bits, start=1)]
        expected = _evaluate(formula, assignment)
        assert (solver.solve(inputs + [root]) is not None) == expected, bits
        assert (solver.solve(inputs + [-root]) is not None) == (not expected), bits


def _literal(atomizer, formula):
    return atomizer.encode(formula)[0]


def _sizes(solver):
    return solver.num_vars, solver.num_clauses


_SHARED = or_(P1, P2)

SHAPES = {
    "and2": and_(P1, P2),
    "or2": or_(P1, P2),
    "and3": and_(P1, P2, P3),
    "or3": or_(P1, P2, P3),
    "not-and": not_(and_(P1, P2)),
    "double-not": unary("!", unary("!", P2)),
    "implies": implies(P1, P3),
    "iff": binop("<=>", P1, P2),
    "xor": or_(and_(P1, not_(P2)), and_(not_(P1), P2)),
    "or-of-ands": or_(and_(P1, P2), and_(P2, P3), not_(P3)),
    "mixed-chain": and_(P1, or_(P2, and_(P1, P3)), implies(P3, P2)),
    "const-true": binop("&&", TRUE, P1),
    "const-false": binop("||", FALSE, P3),
    "empty-and": and_(),
    "empty-or": or_(),
    "single-child": binop("&&", binop("||", P3, P3), P3),
    "complementary": and_(P1, not_(P1)),
    "shared-subtree": and_(_SHARED, or_(not_(_SHARED), P3)),
}


class TestEquivalence:
    @pytest.mark.parametrize("formula", SHAPES.values(), ids=SHAPES.keys())
    def test_root_literal_is_equivalent_to_formula(self, formula):
        """A fresh encoding, a memo hit and a second encoding into the same
        solver: every root is forced to the formula's value by every input
        assignment."""
        atomizer = _inputs_atomizer()
        root = _literal(atomizer, formula)
        _assert_root_equivalent(atomizer.solver, root, formula)
        assert _literal(atomizer, formula) == root
        again = _literal(_sharing_atomizer(atomizer), formula)
        _assert_root_equivalent(atomizer.solver, again, formula)


class TestStructuralSharing:
    def test_repeated_subtree_is_encoded_once(self):
        shared = implies(P1, P2)
        atomizer = _inputs_atomizer()
        _literal(atomizer, and_(shared, or_(shared, P3)))
        # internal nodes: the implication once, the inner or, the and
        assert atomizer.solver.num_vars - NUM_INPUTS == 3
        sizes = _sizes(atomizer.solver)
        _literal(atomizer, shared)
        assert _sizes(atomizer.solver) == sizes

    def test_cache_hit_adds_no_variables_or_clauses(self):
        atomizer = _inputs_atomizer()
        formula = or_(and_(P1, P2), P3)
        first = _literal(atomizer, formula)
        sizes = _sizes(atomizer.solver)
        assert _literal(atomizer, formula) == first
        assert _sizes(atomizer.solver) == sizes

    def test_negation_reuses_the_cached_literal(self):
        atomizer = _inputs_atomizer()
        positive = _literal(atomizer, _SHARED)
        sizes = _sizes(atomizer.solver)
        assert _literal(atomizer, not_(_SHARED)) == -positive
        assert _sizes(atomizer.solver) == sizes

    def test_without_cache_every_encoding_is_fresh(self):
        atomizer = _inputs_atomizer()
        first = _literal(atomizer, _SHARED)
        second = _literal(_sharing_atomizer(atomizer), _SHARED)
        assert first != second
        _assert_root_equivalent(atomizer.solver, second, _SHARED)

    def test_clause_count_is_linear(self):
        """A k-wide ``&&``/``||`` chain is one n-ary node: one variable and
        k+1 clauses, where nested binary nodes would take k-1 and 3(k-1)."""
        for build, width in itertools.product((and_, or_), (2, 3, 5, 9)):
            atomizer = _Atomizer(solver=SatSolver(), sorts={})
            children = [Var(f"c{index}", BOOL) for index in range(width)]
            for child in children:
                atomizer.encode(child)
            clauses = atomizer.solver.num_clauses
            atomizer.encode(build(*children))
            assert atomizer.solver.num_vars == width + 1
            assert atomizer.solver.num_clauses - clauses == width + 1


class TestNaryNodes:
    @pytest.mark.parametrize("op,clauses", [("=>", 3), ("<=>", 4)])
    def test_implication_and_equivalence_are_one_node(self, op, clauses):
        atomizer = _inputs_atomizer()
        before = _sizes(atomizer.solver)
        atomizer.encode(binop(op, P1, P2))
        after = _sizes(atomizer.solver)
        assert (after[0] - before[0], after[1] - before[1]) == (1, clauses)

    def test_duplicate_children_are_deduplicated(self):
        atomizer = _inputs_atomizer()
        before = _sizes(atomizer.solver)
        atomizer.encode(and_(P1, P2, P1, P2))
        after = _sizes(atomizer.solver)
        assert (after[0] - before[0], after[1] - before[1]) == (1, 3)

    def test_flattening_stops_at_a_memoised_prefix(self):
        """``and_`` nests to the left, so a conjunction sharing a prefix with
        an encoded one holds that prefix as a node: it keeps its literal."""
        extra = Var("p4", BOOL)
        atomizer = _inputs_atomizer()
        atomizer.encode(extra)
        prefix = and_(P1, P2)
        prefix_literal = _literal(atomizer, prefix)
        before = _sizes(atomizer.solver)
        root = _literal(atomizer, and_(P1, P2, extra))
        after = _sizes(atomizer.solver)
        # children: the prefix literal and p4
        assert (after[0] - before[0], after[1] - before[1]) == (1, 3)
        solver = atomizer.solver
        assert solver.solve([root, -prefix_literal]) is None
        assert solver.solve([-root, prefix_literal, 4]) is None

    def test_long_chain_does_not_recurse_per_conjunct(self):
        atomizer = _Atomizer(solver=SatSolver(), sorts={"x": INT})
        chain = and_(*[ge(Var("x"), bound) for bound in range(3000)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200 + _depth())
        try:
            root, atoms = atomizer.encode(chain)
        finally:
            sys.setrecursionlimit(limit)
        assert len(atoms) == 3000
        assert atomizer.solver.solve([root]) is not None


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestAssertion:
    def test_add_formula_asserts_the_root(self):
        atomizer = _inputs_atomizer()
        solver = atomizer.solver
        solver.add_clause([_literal(atomizer, or_(P1, P2))])
        model = solver.solve()
        assert model[1] or model[2]
        assert solver.solve([-1, -2]) is None

    def test_contradiction_is_unsat(self):
        atomizer = _inputs_atomizer()
        atomizer.solver.add_clause([_literal(atomizer, and_(P1, not_(P1)))])
        assert atomizer.solver.solve() is None

    def test_guarded_encoding_is_inert_without_its_guard(self):
        """The incremental backend's pattern: definitional clauses plus
        ``(-guard, root)`` constrain nothing until the guard is assumed."""
        atomizer = _inputs_atomizer()
        solver = atomizer.solver
        guard = solver.new_var()
        root = _literal(atomizer, and_(P1, not_(P1)))
        solver.add_clause([-guard, root])
        assert solver.solve([guard]) is None
        assert solver.solve([-guard]) is not None
        assert solver.solve([guard]) is None

    def test_unknown_node_rejected(self):
        atomizer = _inputs_atomizer()
        for formula in (KVar("k", (Var("x"),)), Ite(P1, P2, P3), binop("+", Var("x"), 1)):
            with pytest.raises(SmtError, match="unexpected formula node"):
                atomizer.encode(formula)


# -- the memo inside the incremental backend ------------------------------------

X, Y = Var("x"), Var("y")


def _num_vars(solver):
    return solver._sat.num_vars


class TestIncrementalMemo:
    def test_weakened_conjunction_in_a_new_scope_adds_no_variable(self):
        qualifiers = [ge(X, 0), le(X, 10), lt(X, Y), ge(Y, 1)]
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.push()
        solver.assert_expr(and_(*qualifiers))
        assert solver.check_valid(ge(Y, 1))
        solver.pop()
        solver.push()
        before = _num_vars(solver)
        clauses = solver._sat.num_clauses
        solver.assert_expr(and_(qualifiers[0], qualifiers[2], qualifiers[3]))
        assert _num_vars(solver) == before
        # one selector-guarded clause per surviving conjunct
        assert solver._sat.num_clauses - clauses <= 3
        assert solver.check_valid(ge(Y, 1))
        assert not solver.check_valid(le(X, 10))
        solver.pop()

    @pytest.mark.parametrize("nested", [False, True], ids=["direct", "nested"])
    def test_reused_subformula_still_hands_its_atoms_to_the_theory(self, nested):
        """A formula first encoded in a popped scope is a memo hit later; its
        atoms must still reach the simplex, or ``x >= 5 |= x >= 0`` would be
        refuted by a model that ignores ``x >= 5``."""
        hypothesis = ge(X, 5)
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.push()
        solver.assert_expr(hypothesis)
        solver.pop()
        solver.push()
        if nested:
            # a new node over the memoised one: its atoms come from the memo
            solver.assert_expr(or_(hypothesis, lt(Y, -10)))
            goal = or_(ge(X, 0), lt(Y, -10))
        else:
            solver.assert_expr(hypothesis)
            goal = ge(X, 0)
        assert solver.check_valid(goal)
        solver.pop()
        assert not solver.check_valid(goal)

    def test_ite_term_rewritten_twice_gets_one_fresh_variable(self):
        flag = Var("b", BOOL)
        term = Ite(flag, X, Y)
        solver = IncrementalSolver({"b": BOOL, "x": INT, "y": INT})
        solver.push()
        solver.assert_expr(ge(term, 3))
        solver.assert_expr(le(term, 3))
        assert solver.check_valid(or_(binop("=", X, 3), binop("=", Y, 3)))
        solver.pop()
        fresh = [name for name in solver.sorts if name.startswith("__ite")]
        assert len(fresh) == 1
