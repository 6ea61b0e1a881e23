"""Tests for the Tseitin encoder (``repro.smt.cnf``).

Every skeleton shape is checked for *equivalence*, not just
equisatisfiability: under each assignment of the input variables the root
literal must be forced to the formula's truth value.  The structural-sharing
cache is checked to reuse literals without changing what they mean.
"""

import itertools

import pytest

from repro.smt import cnf
from repro.smt.cnf import and_, const, lit, not_, or_
from repro.smt.sat import SatSolver

NUM_INPUTS = 3


@pytest.fixture(autouse=True)
def _verify_models():
    SatSolver.verify_models = True
    yield
    SatSolver.verify_models = False


def _evaluate(formula, assignment):
    kind = formula[0]
    if kind == "lit":
        return assignment[formula[1]]
    if kind == "const":
        return formula[1]
    if kind == "not":
        return not _evaluate(formula[1], assignment)
    if kind == "and":
        return all(_evaluate(child, assignment) for child in formula[1:])
    return any(_evaluate(child, assignment) for child in formula[1:])


def _inputs_solver():
    solver = SatSolver()
    for _ in range(NUM_INPUTS):
        solver.new_var()
    return solver


def _assert_root_equivalent(solver, root, formula):
    for bits in itertools.product([False, True], repeat=NUM_INPUTS):
        assignment = {var: bits[var - 1] for var in range(1, NUM_INPUTS + 1)}
        inputs = [var if value else -var for var, value in assignment.items()]
        expected = _evaluate(formula, assignment)
        assert (solver.solve(inputs + [root]) is not None) == expected, bits
        assert (solver.solve(inputs + [-root]) is not None) == (not expected), bits


_SHARED = or_(lit(1), lit(2))

SHAPES = {
    "and2": and_(lit(1), lit(2)),
    "or2": or_(lit(1), lit(2)),
    "and3": and_(lit(1), lit(2), lit(3)),
    "or3": or_(lit(1), lit(2), lit(3)),
    "not-and": not_(and_(lit(1), lit(2))),
    "double-not": not_(not_(lit(2))),
    "implies": or_(not_(lit(1)), lit(3)),
    "xor": or_(and_(lit(1), not_(lit(2))), and_(not_(lit(1)), lit(2))),
    "or-of-ands": or_(and_(lit(1), lit(2)), and_(lit(2), lit(3)), not_(lit(3))),
    "const-true": and_(const(True), lit(1)),
    "const-false": or_(const(False), lit(3)),
    "empty-and": and_(),
    "empty-or": or_(),
    "single-child": and_(or_(lit(3))),
    "shared-subtree": and_(_SHARED, or_(not_(_SHARED), lit(3))),
}


class TestEquivalence:
    @pytest.mark.parametrize("formula", SHAPES.values(), ids=SHAPES.keys())
    def test_root_literal_is_equivalent_to_formula(self, formula):
        """Fresh encoding, then a cached one into the same solver: both roots
        are forced to the formula's value by every input assignment."""
        solver = _inputs_solver()
        _assert_root_equivalent(solver, cnf.encode(solver, formula), formula)
        cached = cnf.encode(solver, formula, {})
        _assert_root_equivalent(solver, cached, formula)


class TestStructuralSharing:
    def test_repeated_subtree_is_encoded_once(self):
        formula = and_(_SHARED, or_(_SHARED, lit(3)))
        fresh = _inputs_solver()
        cnf.encode(fresh, formula)
        shared = _inputs_solver()
        cnf.encode(shared, formula, {})
        # internal nodes: _SHARED twice, the inner or, the and
        assert fresh.num_vars - NUM_INPUTS == 4
        assert shared.num_vars - NUM_INPUTS == 3

    def test_cache_hit_adds_no_variables_or_clauses(self):
        solver = _inputs_solver()
        cache = {}
        formula = or_(and_(lit(1), lit(2)), lit(3))
        first = cnf.encode(solver, formula, cache)
        sizes = (solver.num_vars, solver.num_clauses)
        assert cnf.encode(solver, formula, cache) == first
        assert (solver.num_vars, solver.num_clauses) == sizes

    def test_negation_reuses_the_cached_literal(self):
        solver = _inputs_solver()
        cache = {}
        positive = cnf.encode(solver, _SHARED, cache)
        sizes = (solver.num_vars, solver.num_clauses)
        assert cnf.encode(solver, not_(_SHARED), cache) == -positive
        assert (solver.num_vars, solver.num_clauses) == sizes

    def test_without_cache_every_encoding_is_fresh(self):
        solver = _inputs_solver()
        first = cnf.encode(solver, _SHARED)
        second = cnf.encode(solver, _SHARED)
        assert first != second
        _assert_root_equivalent(solver, second, _SHARED)

    def test_clause_count_is_linear(self):
        for width in (2, 3, 5):
            solver = SatSolver()
            children = [lit(solver.new_var()) for _ in range(width)]
            clauses = solver.num_clauses
            cnf.encode(solver, and_(*children))
            assert solver.num_vars == width + 1
            assert solver.num_clauses - clauses == width + 1


class TestAssertion:
    def test_add_formula_asserts_the_root(self):
        solver = _inputs_solver()
        cnf.add_formula(solver, or_(lit(1), lit(2)))
        model = solver.solve()
        assert model[1] or model[2]
        assert solver.solve([-1, -2]) is None

    def test_contradiction_is_unsat(self):
        solver = _inputs_solver()
        cnf.add_formula(solver, and_(lit(1), not_(lit(1))))
        assert solver.solve() is None

    def test_guarded_encoding_is_inert_without_its_guard(self):
        """The incremental backend's pattern: definitional clauses plus
        ``(-guard, root)`` constrain nothing until the guard is assumed."""
        solver = _inputs_solver()
        guard = solver.new_var()
        root = cnf.encode(solver, and_(lit(1), not_(lit(1))))
        solver.add_clause([-guard, root])
        assert solver.solve([guard]) is None
        assert solver.solve([-guard]) is not None
        assert solver.solve([guard]) is None

    def test_unknown_node_rejected(self):
        solver = _inputs_solver()
        with pytest.raises(ValueError, match="unknown skeleton node"):
            cnf.encode(solver, ("xor", lit(1), lit(2)))
