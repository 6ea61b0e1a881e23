"""Unit tests for the exact simplex and the LIA branch-and-bound layer."""

import random
from fractions import Fraction

import pytest

from repro.smt.lia import check_lia
from repro.smt.simplex import (
    BacktrackableSimplex,
    Constraint,
    DeltaRational,
    check_constraints,
)


def C(coeffs, op, bound):
    return Constraint({k: Fraction(v) for k, v in coeffs.items()}, op, Fraction(bound))


class TestDeltaRational:
    def test_ordering_uses_infinitesimal(self):
        a = DeltaRational(Fraction(1), Fraction(0))
        b = DeltaRational(Fraction(1), Fraction(1))
        assert a < b
        assert b > a

    def test_arithmetic(self):
        a = DeltaRational(Fraction(1), Fraction(2))
        b = DeltaRational(Fraction(3), Fraction(-1))
        assert (a + b) == DeltaRational(Fraction(4), Fraction(1))
        assert (a - b) == DeltaRational(Fraction(-2), Fraction(3))
        assert a.scale(Fraction(2)) == DeltaRational(Fraction(2), Fraction(4))


class TestSimplexFeasibility:
    def test_trivial_sat(self):
        result = check_constraints([C({"x": 1}, "<=", 5)])
        assert result.satisfiable
        assert result.model["x"] <= 5

    def test_two_sided_bounds(self):
        result = check_constraints([C({"x": 1}, ">=", 2), C({"x": 1}, "<=", 10)])
        assert result.satisfiable
        assert 2 <= result.model["x"] <= 10

    def test_simple_conflict(self):
        result = check_constraints([C({"x": 1}, ">=", 5), C({"x": 1}, "<=", 3)])
        assert not result.satisfiable
        assert result.conflict == {0, 1}

    def test_multi_variable_sat(self):
        constraints = [
            C({"x": 1, "y": 1}, "<=", 10),
            C({"x": 1}, ">=", 3),
            C({"y": 1}, ">=", 4),
        ]
        result = check_constraints(constraints)
        assert result.satisfiable
        model = result.model
        assert model["x"] + model["y"] <= 10
        assert model["x"] >= 3
        assert model["y"] >= 4

    def test_multi_variable_unsat(self):
        constraints = [
            C({"x": 1, "y": 1}, "<=", 5),
            C({"x": 1}, ">=", 3),
            C({"y": 1}, ">=", 4),
        ]
        result = check_constraints(constraints)
        assert not result.satisfiable
        assert result.conflict is not None
        # the explanation must itself be infeasible
        core = [constraints[i] for i in result.conflict]
        assert not check_constraints(core).satisfiable

    def test_equality_constraints(self):
        constraints = [
            C({"x": 1, "y": -1}, "=", 0),
            C({"x": 1}, "=", 7),
        ]
        result = check_constraints(constraints)
        assert result.satisfiable
        assert result.model["x"] == result.model["y"] == 7

    def test_equality_conflict(self):
        constraints = [
            C({"x": 1}, "=", 3),
            C({"x": 1}, "=", 4),
        ]
        result = check_constraints(constraints)
        assert not result.satisfiable

    def test_strict_inequality_satisfied_strictly(self):
        constraints = [C({"x": 1}, ">", 0), C({"x": 1}, "<", 1)]
        result = check_constraints(constraints)
        assert result.satisfiable
        assert 0 < result.model["x"] < 1

    def test_strict_inequality_conflict(self):
        constraints = [C({"x": 1}, ">", 3), C({"x": 1}, "<", 3)]
        result = check_constraints(constraints)
        assert not result.satisfiable

    def test_strict_vs_nonstrict_boundary(self):
        constraints = [C({"x": 1}, ">=", 3), C({"x": 1}, "<", 3)]
        result = check_constraints(constraints)
        assert not result.satisfiable

    def test_negative_coefficients(self):
        constraints = [C({"x": -2}, "<=", -6)]  # -2x <= -6  =>  x >= 3
        result = check_constraints(constraints)
        assert result.satisfiable
        assert result.model["x"] >= 3

    def test_ground_true_constraint(self):
        result = check_constraints([C({}, "<=", 5)])
        assert result.satisfiable

    def test_ground_false_constraint(self):
        result = check_constraints([C({}, "<=", -5)])
        assert not result.satisfiable
        assert result.conflict == {0}

    def test_chain_of_differences(self):
        # x0 <= x1 <= ... <= x5, x0 >= 10, x5 <= 9 is unsat
        constraints = []
        for i in range(5):
            constraints.append(C({f"x{i}": 1, f"x{i+1}": -1}, "<=", 0))
        constraints.append(C({"x0": 1}, ">=", 10))
        constraints.append(C({"x5": 1}, "<=", 9))
        result = check_constraints(constraints)
        assert not result.satisfiable

    def test_larger_feasible_system(self):
        constraints = [
            C({"a": 1, "b": 2, "c": -1}, "<=", 4),
            C({"a": -1, "b": 1}, "<=", 1),
            C({"b": 1, "c": 1}, ">=", 2),
            C({"a": 1}, ">=", 0),
            C({"c": 1}, "<=", 10),
        ]
        result = check_constraints(constraints)
        assert result.satisfiable
        model = result.model
        assert model["a"] + 2 * model["b"] - model["c"] <= 4
        assert -model["a"] + model["b"] <= 1
        assert model["b"] + model["c"] >= 2
        assert model["a"] >= 0
        assert model["c"] <= 10


class TestLia:
    def test_integer_gap_unsat(self):
        # 2x = 1 has a rational solution but no integer one
        result = check_lia([C({"x": 2}, "=", 1)], {"x"})
        assert result.status == "unsat"

    def test_integer_gap_between_bounds(self):
        # 0.2 <= x <= 0.8 has no integer point
        constraints = [
            C({"x": 5}, ">=", 1),
            C({"x": 5}, "<=", 4),
        ]
        result = check_lia(constraints, {"x"})
        assert result.status == "unsat"

    def test_integer_feasible(self):
        constraints = [
            C({"x": 1, "y": 1}, "=", 7),
            C({"x": 1}, ">=", 3),
            C({"y": 1}, ">=", 2),
        ]
        result = check_lia(constraints, {"x", "y"})
        assert result.status == "sat"
        assert result.model["x"].denominator == 1
        assert result.model["x"] + result.model["y"] == 7

    def test_rational_conflict_has_explanation(self):
        constraints = [
            C({"x": 1}, ">=", 10),
            C({"x": 1}, "<=", 0),
            C({"y": 1}, "<=", 100),
        ]
        result = check_lia(constraints, {"x", "y"})
        assert result.status == "unsat"
        assert result.conflict is not None
        assert 2 not in result.conflict  # irrelevant constraint excluded

    def test_mixed_real_and_int(self):
        constraints = [
            C({"x": 2}, "=", 1),  # x = 0.5 allowed because x is real-sorted here
        ]
        result = check_lia(constraints, set())
        assert result.status == "sat"
        assert result.model["x"] == Fraction(1, 2)

    def test_node_budget_gives_unknown(self):
        # A system engineered to branch a lot with a tiny budget.
        constraints = [
            C({"x": 3, "y": -3}, "=", 1),  # no integer solutions
        ]
        result = check_lia(constraints, {"x", "y"}, max_nodes=1)
        assert result.status in ("unknown", "unsat")


class TestConflictIrreducibility:
    """Every conflict of the backtrackable simplex is irreducible over the
    rationals: a bound clash, or one row's violated bound plus the blocking
    bound of each nonbasic variable in that row.  The theory solver relies on
    this to pass such cores through without drop-one shrinking."""

    NAMES = ("a", "b", "c", "d")

    def _random_term(self, rng):
        names = rng.sample(self.NAMES, rng.randint(1, 3))
        return {name: rng.choice([-3, -2, -1, 1, 2, 3]) for name in names}

    def _conflicts(self, seed):
        """Drive one seeded run; yields ``(conflict, constraint of origin)``."""
        rng = random.Random(seed)
        simplex = BacktrackableSimplex()
        terms = [self._random_term(rng) for _ in range(12)]
        constraint_of = {}
        marks = []
        for origin in range(1, 81):
            coeffs = rng.choice(terms)
            is_upper = rng.random() < 0.5
            limit = rng.randint(-20, 20)
            strict = rng.random() < 0.25
            eps = (-1 if is_upper else 1) if strict else 0
            op = ("<" if strict else "<=") if is_upper else (">" if strict else ">=")
            constraint_of[origin] = Constraint(dict(coeffs), op, limit)
            marks.append(simplex.mark())
            name = simplex.term_var(coeffs)
            conflict = simplex.assert_bound(name, is_upper, DeltaRational(limit, eps), origin)
            if conflict is None:
                conflict = simplex.feasible()
            if conflict is not None:
                yield conflict, constraint_of
                # backtrack like the SAT core: at least past the culprit
                keep = rng.randrange(len(marks))
                simplex.undo_to(marks[keep])
                del marks[keep:]

    @pytest.mark.parametrize("seed", range(8))
    def test_conflicts_are_infeasible_and_drop_one_feasible(self, seed):
        checked = 0
        runs = (self._conflicts(31_000 + 3 * seed + k) for k in range(3))
        for conflict, constraint_of in (pair for run in runs for pair in run):
            core = sorted(conflict)
            assert not check_constraints([constraint_of[o] for o in core]).satisfiable
            for dropped in core:
                rest = [constraint_of[o] for o in core if o != dropped]
                assert check_constraints(rest).satisfiable, (
                    f"core {core} stays infeasible without {dropped}"
                )
            checked += 1
        assert checked > 0
