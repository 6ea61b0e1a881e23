"""Tests for the online DPLL(T) engine.

The load-bearing property is *equivalence with the offline oracle*: the
online engine (backtrackable simplex inside the CDCL search, theory
propagation, minimized explanations) must return the same SAT/UNSAT verdict
as the historical enumerate-block-repeat loop on every query, and every SAT
model must actually satisfy the asserted atoms (``verify_models`` re-checks
both the clause database and the theory side).  The directed tests pin down
the backtrackable-simplex trail discipline and the budget/unknown paths.
"""

import random

import pytest

from repro.logic.expr import (
    BinOp,
    IntConst,
    Var,
    add,
    and_,
    ge,
    gt,
    implies,
    le,
    lt,
    not_,
    or_,
    sub,
)
from repro.logic.sorts import INT
from repro.obs import ObsContext, use_obs
from repro.smt import IncrementalSolver, SatResult, check_sat
from repro.smt.atoms import LinearAtom, LinTerm, atom_constraint
from repro.smt.incremental import solve_formula
from repro.smt.lia import check_lia
from repro.smt.sat import SatSolver
from repro.smt.simplex import BacktrackableSimplex, DeltaRational
from repro.smt.theory import TheorySolver, TheoryUnknown


@pytest.fixture(autouse=True)
def _verify_models():
    """Every SAT answer in this suite is re-checked, boolean and theory side."""
    SatSolver.verify_models = True
    yield
    SatSolver.verify_models = False


# -- random LIA skeleton generator -------------------------------------------

_VARS = [Var("x"), Var("y"), Var("z"), Var("w")]
_CONSTS = [IntConst(-3), IntConst(-1), IntConst(0), IntConst(1), IntConst(2), IntConst(5)]


def _random_term(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_VARS + _CONSTS)
    op = rng.choice([add, sub])
    return op(_random_term(rng, depth - 1), _random_term(rng, depth - 1))


def _random_atom(rng):
    op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
    return BinOp(op, _random_term(rng), _random_term(rng))


def _random_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return _random_atom(rng)
    shape = rng.random()
    lhs = _random_formula(rng, depth - 1)
    rhs = _random_formula(rng, depth - 1)
    if shape < 0.35:
        return and_(lhs, rhs)
    if shape < 0.7:
        return or_(lhs, rhs)
    if shape < 0.85:
        return implies(lhs, rhs)
    return not_(lhs)


class TestOnlineOfflineDifferential:
    """The randomized oracle gate: ~200 seeded LIA skeletons per run."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_shot_engines_agree(self, seed):
        rng = random.Random(987_000 + seed)
        for _ in range(25):
            formula = _random_formula(rng, depth=3)
            offline = solve_formula(formula, engine="offline")
            online = solve_formula(formula, engine="online")
            assert online.result == offline.result, f"diverged on {formula}"

    def test_incremental_engines_agree_across_scopes(self):
        """One persistent online solver vs a fresh offline solver per query:
        retained tableau state must never change an answer."""
        rng = random.Random(424242)
        online = IncrementalSolver()
        for _ in range(40):
            hypotheses = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
            goal = _random_formula(rng, depth=2)
            offline = IncrementalSolver(engine="offline")
            for solver in (online, offline):
                solver.push()
                for hypothesis in hypotheses:
                    solver.assert_expr(hypothesis)
            assert online.check_valid(goal) == offline.check_valid(goal), (
                f"diverged on {hypotheses} |= {goal}"
            )
            online.pop()
            offline.pop()

    def test_online_engine_exercises_new_machinery(self):
        """Sanity: the differential above actually runs the online paths."""
        rng = random.Random(7)
        solver = IncrementalSolver()
        obs = ObsContext.create()
        with use_obs(obs):
            for _ in range(30):
                solver.push()
                for _ in range(rng.randint(1, 3)):
                    solver.assert_expr(_random_atom(rng))
                solver.check_valid(_random_formula(rng, depth=2))
                solver.pop()
        registry = obs.registry
        assert registry.value("smt.partial_checks") > 0
        assert registry.value("smt.explanations") >= 0
        assert registry.value("smt.theory_seconds") >= 0.0


class TestBacktrackableSimplex:
    def test_assert_and_undo_restores_bounds(self):
        simplex = BacktrackableSimplex()
        x = simplex.term_var({"x": 1})
        mark = simplex.mark()
        assert simplex.assert_bound(x, True, DeltaRational(5), origin=3) is None
        assert simplex.assert_bound(x, False, DeltaRational(2), origin=4) is None
        assert simplex.feasible() is None
        inner = simplex.mark()
        conflict = simplex.assert_bound(x, False, DeltaRational(9), origin=5)
        assert conflict == {3, 5}  # lower 9 against upper 5
        simplex.undo_to(inner)
        assert simplex.lower_bound(x).value == DeltaRational(2)
        simplex.undo_to(mark)
        assert simplex.upper_bound(x) is None
        assert simplex.lower_bound(x) is None

    def test_row_conflict_explained_with_origins(self):
        simplex = BacktrackableSimplex()
        s = simplex.term_var({"x": 1, "y": 1})  # slack for x + y
        assert simplex.assert_bound(s, False, DeltaRational(10), origin=11) is None
        assert simplex.assert_bound(simplex.term_var({"x": 1}), True, DeltaRational(2), origin=12) is None
        assert simplex.assert_bound(simplex.term_var({"y": 1}), True, DeltaRational(3), origin=13) is None
        conflict = simplex.feasible()
        assert conflict == {11, 12, 13}

    def test_branch_and_bound_on_live_tableau(self):
        simplex = BacktrackableSimplex()
        s = simplex.term_var({"x": 2})  # 2x
        assert simplex.assert_bound(s, False, DeltaRational(1), origin=21) is None
        assert simplex.assert_bound(s, True, DeltaRational(1), origin=22) is None
        # 2x = 1 has no integer solution; the rational relaxation is feasible
        status, explanation, model, nodes = simplex.check_integer({"x"}, model_names={"x"})
        assert status == "unsat"
        assert nodes >= 1
        # bound state untouched by the search
        assert simplex.lower_bound(s).value == DeltaRational(1)

    def test_integer_model_is_integral(self):
        simplex = BacktrackableSimplex()
        x = simplex.term_var({"x": 1})
        assert simplex.assert_bound(x, False, DeltaRational(0, 1), origin=31) is None  # x > 0
        assert simplex.assert_bound(x, True, DeltaRational(3), origin=32) is None
        status, _, model, _ = simplex.check_integer({"x"}, model_names={"x"})
        assert status == "sat"
        assert model["x"] == int(model["x"])
        assert 0 < model["x"] <= 3


class TestNegativeLiteralOrigins:
    def test_feasible_keeps_negative_literal_in_explanation(self):
        """Regression: -1 is variable 1's negative literal, not a sentinel;
        it must survive into conflict explanations."""
        simplex = BacktrackableSimplex()
        s = simplex.term_var({"x": 1, "y": 1})
        assert simplex.assert_bound(s, True, DeltaRational(0), origin=5) is None
        assert (
            simplex.assert_bound(simplex.term_var({"y": 1}), False, DeltaRational(3), origin=7)
            is None
        )
        assert (
            simplex.assert_bound(simplex.term_var({"x": 1}), False, DeltaRational(-2), origin=-1)
            is None
        )
        conflict = simplex.feasible()
        assert conflict == {5, 7, -1}

    def test_goal_atom_as_variable_one_stays_sound(self):
        """End-to-end reproduction: when the goal's atom is SAT variable 1,
        assuming the negated goal asserts literal -1 into the theory.  A
        conflict explanation that dropped -1 learned an over-strong lemma,
        permanently latched the solver UNSAT, and certified false
        obligations afterwards."""
        x, y = Var("x"), Var("y")
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.literal_for(le(x, IntConst(2)))  # atom "x <= 2" becomes var 1
        solver.assert_expr(le(add(x, y), 0))
        solver.assert_expr(ge(y, 3))
        assert solver.check_valid(le(x, IntConst(2)))  # x <= -3 <= 2: valid
        # A genuinely invalid goal must stay refutable afterwards.
        assert not solver.check_valid(le(x, IntConst(-100)))
        answer = solver.check_sat()
        assert answer.result is SatResult.SAT


class TestTheoryPropagation:
    def test_bound_implies_weaker_atom(self):
        """Asserting x >= 5 must propagate x >= 3 as a theory consequence,
        not rediscover it through search."""
        x = Var("x")
        solver = IncrementalSolver({"x": INT})
        solver.push()
        # Mention both atoms so they are registered before the check.
        solver.assert_expr(ge(x, 5))
        solver.assert_expr(or_(ge(x, 3), le(x, 0)))
        obs = ObsContext.create()
        with use_obs(obs):
            answer = solver.check_sat()
        assert answer.result is SatResult.SAT
        assert obs.registry.value("smt.theory_propagations") > 0
        solver.pop()

    def test_partial_checks_happen(self):
        x, y = Var("x"), Var("y")
        solver = IncrementalSolver({"x": INT, "y": INT})
        solver.push()
        solver.assert_expr(and_(ge(x, 0), le(add(x, y), 10)))
        solver.assert_expr(ge(y, 0))
        obs = ObsContext.create()
        with use_obs(obs):
            assert solver.check_valid(le(x, IntConst(10)))
        solver.pop()
        assert obs.registry.value("smt.partial_checks") > 0

    def test_final_checks_reach_the_registry(self):
        """``2x - 2y = 1`` with ``0 <= x, y <= 3`` is rationally feasible, so
        only branch-and-bound at a full assignment refutes it; each such
        final check is counted as ``smt.final_checks``."""
        x, y = Var("x"), Var("y")
        bounds = [ge(x, 0), le(x, 3), ge(y, 0), le(y, 3)]
        formula = and_(BinOp("=", sub(add(x, x), add(y, y)), IntConst(1)), *bounds)
        obs = ObsContext.create()
        with use_obs(obs):
            answer = check_sat(formula, {"x": INT, "y": INT})
        assert answer.result is SatResult.UNSAT
        assert obs.registry.value("smt.final_checks") > 0


class TestBudgets:
    @staticmethod
    def _assert_branchy_conflict(solver):
        """Two slack-row conflicts that single-variable bound propagation
        cannot shortcut: each disjunct needs its own simplex refutation."""
        x, y, z = Var("x"), Var("y"), Var("z")
        solver.assert_expr(or_(ge(add(x, y), 10), ge(add(x, z), 10)))
        solver.assert_expr(le(x, 2))
        solver.assert_expr(le(y, 2))
        solver.assert_expr(le(z, 2))

    def test_round_budget_returns_unknown(self):
        """A theory-round budget too small for the search yields UNKNOWN with
        a reason, never a wrong verdict or a crash."""
        solver = IncrementalSolver(
            {"x": INT, "y": INT, "z": INT}, max_theory_rounds=1
        )
        self._assert_branchy_conflict(solver)
        answer = solver.check_sat()
        assert answer.result is SatResult.UNKNOWN
        assert "budget" in answer.reason

    def test_generous_budget_decides_the_same_problem(self):
        solver = IncrementalSolver(
            {"x": INT, "y": INT, "z": INT}, max_theory_rounds=5000
        )
        self._assert_branchy_conflict(solver)
        assert solver.check_sat().result is SatResult.UNSAT


class TestExplanationShrinking:
    def test_core_dropone_removes_padding(self):
        """Irrelevant asserted atoms must not survive into the explanation.

        No drop-one shrinking is involved: the simplex explanation names
        only the clashing bounds, so the padding never enters it.
        """
        x = Var("x")
        pads = [Var(f"p{i}") for i in range(6)]
        solver = IncrementalSolver()
        solver.push()
        for pad in pads:
            solver.assert_expr(ge(pad, 0))
        solver.assert_expr(ge(x, 5))
        obs = ObsContext.create()
        with use_obs(obs):
            assert solver.check_valid(ge(x, 1))
        solver.pop()
        # The refutation's conflict is the bound clash {x >= 5, x < 1}; with
        # six padding atoms asserted the average explanation stays far below
        # the asserted-atom count.
        explanations = obs.registry.value("smt.explanations")
        if explanations:
            assert obs.registry.value("smt.explanation_literals") / explanations <= 4

    def test_branch_and_bound_fallback_is_shrunk(self):
        """``2x - 2y = 1`` with ``0 <= x, y <= 3`` is rationally feasible but
        has no integer solution.  Every branch-and-bound refutation leans on
        a branching cut, so the final check falls back to the full asserted
        set, and drop-one shrinking must trim the padding from it."""
        atoms = {
            1: LinearAtom(LinTerm((("x", 2), ("y", -2)), -1), "=", True),
            2: LinearAtom(LinTerm((("x", -1),), 0), "<=", True),  # x >= 0
            3: LinearAtom(LinTerm((("x", 1),), -3), "<=", True),  # x <= 3
            4: LinearAtom(LinTerm((("y", -1),), 0), "<=", True),  # y >= 0
            5: LinearAtom(LinTerm((("y", 1),), -3), "<=", True),  # y <= 3
        }
        padding = set()
        for index in range(4):  # p_i + q_i <= 7
            var = 6 + index
            atoms[var] = LinearAtom(LinTerm(((f"p{index}", 1), (f"q{index}", 1)), -7), "<=", True)
            padding.add(var)
        int_vars = {"x", "y"} | {f"{n}{i}" for n in "pq" for i in range(4)}
        theory = TheorySolver(atoms)
        theory.begin_check(None, int_vars, 5000)
        for position, lit in enumerate(sorted(atoms)):
            assert theory.assert_literal(lit, position) is None
        assert theory.partial_check() is None
        explanation = theory.final_check()
        assert explanation is not None
        assert theory.check.core_shrink_rounds > 0
        assert padding.isdisjoint(explanation)
        core = [atom_constraint(atoms[lit]) for lit in explanation]
        assert check_lia(core, int_vars).status == "unsat"

    def test_simplex_cores_pass_through_unshrunk(self):
        """Row explanations are irreducible over the rationals: a partial
        check's conflict is learned as is, with no drop-one rounds."""
        atoms = {
            1: LinearAtom(LinTerm((("x", -1), ("y", -1)), 10), "<=", True),  # x + y >= 10
            2: LinearAtom(LinTerm((("x", 1),), -2), "<=", True),  # x <= 2
            3: LinearAtom(LinTerm((("y", 1), ("z", 1)), -3), "<=", True),  # y + z <= 3
            4: LinearAtom(LinTerm((("z", -1),), 0), "<=", True),  # z >= 0
        }
        theory = TheorySolver(atoms)
        theory.begin_check(None, {"x", "y", "z"}, 5000)
        for position, lit in enumerate(sorted(atoms)):
            assert theory.assert_literal(lit, position) is None
        assert theory.partial_check() == [1, 2, 3, 4]
        assert theory.check.core_shrink_rounds == 0


class TestRowRetirement:
    """Retiring the rows of atoms not in force changes nothing observable.

    A twin solver whose retirement is a no-op keeps every row up to date;
    both must pivot, explain, propagate and model identically."""

    NAMES = ("a", "b", "c", "d")

    def _atom_table(self, rng, count):
        table = {}
        for var in range(1, count + 1):
            names = sorted(rng.sample(self.NAMES, rng.randint(1, 3)))
            coeffs = tuple((name, rng.choice([-2, -1, 1, 2, 3])) for name in names)
            op = rng.choice(["<=", "<=", "<=", "<", "="])
            term = LinTerm(coeffs, rng.randint(-8, 8))
            table[var] = LinearAtom(term, op, op != "<")
        return table

    @staticmethod
    def _final(theory):
        try:
            explanation = theory.final_check()
        except TheoryUnknown:
            return "unknown"
        return explanation if explanation is not None else theory.last_model

    @staticmethod
    def _check_record(theory):
        record = theory.finish_check().to_dict()
        del record["theory_time"]
        return record

    def test_retirement_is_invisible(self):
        retired = rebuilt = 0
        for seed in range(16):
            rng = random.Random(55_000 + seed)
            table = self._atom_table(rng, 14)
            pair = [TheorySolver(table), TheorySolver(table)]
            pair[1]._simplex.retire_rows = lambda in_force: None
            simplex = pair[0]._simplex
            for _ in range(10):
                active = set(rng.sample(sorted(table), rng.randint(3, 10)))
                before = set(simplex._retired)
                for theory in pair:
                    theory.begin_check(active, set(self.NAMES), 5000)
                retired += len(simplex._retired - before)
                trail = []
                for _ in range(rng.randint(4, 16)):
                    roll = rng.random()
                    free = sorted(active - {abs(lit) for lit in trail})
                    if roll < 0.6 and free:
                        var = rng.choice(free)
                        lit = var if table[var].op == "=" or rng.random() < 0.5 else -var
                        trail.append(lit)
                        before = set(simplex._retired)
                        results = [t.assert_literal(lit, len(trail) - 1) for t in pair]
                        rebuilt += len(before - simplex._retired)
                        queues = [t.drain_propagations() for t in pair]
                        assert queues[0] == queues[1]
                    elif roll < 0.8:
                        results = [t.partial_check() for t in pair]
                    elif roll < 0.9:
                        results = [self._final(t) for t in pair]
                    else:
                        keep = rng.randrange(len(trail) + 1)
                        for theory in pair:
                            theory.shrink_to_trail(keep)
                        del trail[keep:]
                        results = [None, None]
                    assert results[0] == results[1], f"seed {seed}"
                    assert pair[0]._simplex.pivots == pair[1]._simplex.pivots
                    if isinstance(results[0], list) and trail:
                        # a conflict: backtrack like the SAT core would
                        keep = rng.randrange(len(trail))
                        for theory in pair:
                            theory.shrink_to_trail(keep)
                        del trail[keep:]
                assert self._check_record(pair[0]) == self._check_record(pair[1])
        assert retired > 0 and rebuilt > 0

    def test_rebuilt_row_equals_maintained_row(self):
        """Retire a row, pivot elsewhere, then bound it: the rebuilt row and
        value are the ones the twin's tableau maintained through the pivot."""
        pair = [BacktrackableSimplex(), BacktrackableSimplex()]
        for simplex in pair:
            s1 = simplex.term_var({"x": 1, "y": 1})
            s2 = simplex.term_var({"y": 1, "z": 2})
        retiring, twin = pair
        retiring.retire_rows({s2, "x", "y", "z"})
        assert retiring._id[s1] not in retiring._rows
        for simplex in pair:
            # s2 >= 10 pivots y into the basis (y = s2 - 2z), rewriting the
            # twin's row of s1 = x + y
            assert simplex.assert_bound(s2, False, DeltaRational(10), origin=1) is None
            assert simplex.feasible() is None
            assert simplex.assert_bound(s1, True, DeltaRational(20), origin=2) is None

        def row_and_value(simplex):
            vid = simplex._id[s1]
            row = {simplex._name[j]: c for j, c in simplex._rows[vid].items()}
            return row, simplex._vreal[vid], simplex._veps[vid]

        assert retiring.pivots == twin.pivots == 1
        assert row_and_value(retiring) == row_and_value(twin) == ({"x": 1, s2: 1, "z": -2}, 10, 0)
