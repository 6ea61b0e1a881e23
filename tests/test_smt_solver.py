"""Tests for the lazy DPLL(T) solver and the validity interface."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.logic import (
    BOOL,
    INT,
    TRUE,
    FALSE,
    Forall,
    IntConst,
    Var,
    add,
    and_,
    eq,
    ge,
    gt,
    implies,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    sub,
)
from repro.logic.expr import App, Ite, KVar
from repro.obs import ObsContext, use_obs
from repro.smt import SmtContext, check_sat, is_satisfiable, is_valid, use_context
from repro.smt.incremental import solve_formula
from repro.smt.solver import SmtError


x, y, z = Var("x"), Var("y"), Var("z")
b = Var("b", BOOL)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestSatisfiability:
    def test_trivial_true(self):
        assert is_satisfiable(TRUE)

    def test_trivial_false(self):
        assert not is_satisfiable(FALSE)

    def test_simple_inequality(self):
        assert is_satisfiable(gt(x, 0))

    def test_contradiction(self):
        assert not is_satisfiable(and_(gt(x, 0), lt(x, 0)))

    def test_boundary_contradiction(self):
        assert not is_satisfiable(and_(ge(x, 5), le(x, 4)))

    def test_boundary_satisfiable(self):
        answer = check_sat(and_(ge(x, 5), le(x, 5)))
        assert answer.is_sat
        assert answer.model["x"] == 5

    def test_disjunction_picks_feasible_branch(self):
        formula = and_(or_(lt(x, 0), gt(x, 10)), ge(x, 5))
        answer = check_sat(formula)
        assert answer.is_sat
        assert answer.model["x"] > 10

    def test_disequality(self):
        assert is_satisfiable(and_(ne(x, 3), ge(x, 3), le(x, 4)))
        assert not is_satisfiable(and_(ne(x, 3), ge(x, 3), le(x, 3)))

    def test_equalities_propagate(self):
        formula = and_(eq(x, y), eq(y, z), eq(x, 1), eq(z, 2))
        assert not is_satisfiable(formula)

    def test_linear_combination(self):
        formula = and_(eq(add(x, y), 10), eq(sub(x, y), 4))
        answer = check_sat(formula)
        assert answer.is_sat
        assert answer.model["x"] == 7
        assert answer.model["y"] == 3

    def test_integer_gap(self):
        # 2x = 1 is unsat over the integers
        assert not is_satisfiable(eq(mul(2, x), 1))

    def test_boolean_variables(self):
        formula = and_(or_(b, gt(x, 0)), not_(b), le(x, 0))
        assert not is_satisfiable(formula, {"b": BOOL})

    def test_boolean_equality(self):
        formula = and_(eq(b, True), not_(b))
        assert not is_satisfiable(formula, {"b": BOOL})

    def test_implication_structure(self):
        formula = and_(implies(gt(x, 0), gt(y, 10)), eq(x, 5), le(y, 10))
        assert not is_satisfiable(formula)

    def test_ite_term(self):
        formula = eq(Ite(gt(x, 0), IntConst(1), IntConst(2)), 2)
        answer = check_sat(formula)
        assert answer.is_sat
        assert answer.model["x"] <= 0

    def test_nonlinear_rejected(self):
        with pytest.raises(SmtError):
            solve_formula(eq(mul(x, y), 4))

    def test_kvar_rejected(self):
        with pytest.raises(SmtError):
            solve_formula(KVar("k0", (x,)))

    def test_constant_false_beside_nonlinear_is_unsat(self):
        # The whole query is simplified before any conjunct is encoded, so
        # the false conjunct decides it; encoding ``x * y`` would raise.
        false, nonlinear = gt(IntConst(0), IntConst(1)), ge(mul(x, y), 0)
        with use_context(SmtContext()):
            assert check_sat(and_(false, nonlinear)).is_unsat
            # ``validity_answer`` simplifies each hypothesis on its own, but
            # the instance ``0 > 5`` of the quantified one only appears
            # after instantiation, inside the whole query.
            above_five = Forall((("i", INT),), gt(Var("i"), 5))
            assert is_valid([above_five, nonlinear], lt(x, 0))

    def test_long_conjunction_in_fresh_process(self):
        # A conjunction of n hypotheses nests n deep.  In a fresh
        # interpreter (recursion limit 1000) nothing has raised the limit
        # yet, so the one-shot path must raise it before simplifying.
        script = (
            "from repro.logic import Var, ge, gt\n"
            "from repro.smt import is_valid\n"
            "hyps = [gt(Var(f'x{i}'), i) for i in range(500)]\n"
            "print(is_valid(hyps, ge(Var('x0'), 0)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_model_satisfies_atoms(self):
        formula = and_(ge(x, 3), le(add(x, y), 10), ge(y, 2))
        answer = check_sat(formula)
        assert answer.is_sat
        model = answer.model
        assert model["x"] >= 3
        assert model["x"] + model["y"] <= 10
        assert model["y"] >= 2


class TestUninterpretedFunctions:
    def test_functional_consistency(self):
        fx = App("f", (x,), INT)
        fy = App("f", (y,), INT)
        formula = and_(eq(x, y), ne(fx, fy))
        assert not is_satisfiable(formula)

    def test_different_arguments_allowed(self):
        fx = App("f", (x,), INT)
        fy = App("f", (y,), INT)
        formula = and_(ne(x, y), ne(fx, fy))
        assert is_satisfiable(formula)

    def test_nested_applications(self):
        ffx = App("f", (App("f", (x,), INT),), INT)
        fx = App("f", (x,), INT)
        formula = and_(eq(fx, x), ne(ffx, x))
        assert not is_satisfiable(formula)


class TestValidity:
    def test_modus_ponens(self):
        assert is_valid([gt(x, 0)], ge(x, 1))

    def test_not_valid(self):
        assert not is_valid([ge(x, 0)], ge(x, 1))

    def test_decr_obligation(self):
        # a_y >= 0, a_y > 0 |= a_y - 1 >= 0   (the decr example from §3.2)
        ay = Var("ay")
        assert is_valid([ge(ay, 0), gt(ay, 0)], ge(sub(ay, 1), 0))

    def test_append_obligation(self):
        # (0 = n => m = n + m) and (v + 1 = n => v + m + 1 = n + m)  from §2.3
        n, m, v = Var("n"), Var("m"), Var("v")
        assert is_valid([eq(IntConst(0), n)], eq(m, add(n, m)))
        assert is_valid([eq(add(v, 1), n)], eq(add(add(v, m), 1), add(n, m)))

    def test_vector_bounds_obligation(self):
        # i < n and n <= len |= i < len
        i, n, length = Var("i"), Var("n"), Var("len")
        assert is_valid([lt(i, n), le(n, length)], lt(i, length))

    def test_invalid_vector_bound(self):
        i, n = Var("i"), Var("n")
        assert not is_valid([le(i, n)], lt(i, n))

    def test_empty_hypotheses(self):
        assert is_valid([], ge(mul(x, 0), 0))

    def test_hypotheses_contradictory(self):
        assert is_valid([gt(x, 0), lt(x, 0)], FALSE)

    def test_stats_recorded(self):
        # A miss runs on a throwaway incremental solver but is recorded
        # once, as a one-shot check.
        obs = ObsContext.create()
        with use_obs(obs), use_context(SmtContext()):
            is_valid([gt(x, 0)], ge(x, 1))
        assert obs.registry.value("smt.queries.oneshot") == 1
        assert obs.registry.value("smt.queries.incremental") == 0
        assert obs.registry.value("smt.query_seconds") == 1
        assert obs.registry.value("smt.result.unsat") == 1

    def test_replay_counts_work_but_not_time(self):
        """A second ``check_sat`` of one formula replays the answer cache:
        every ``smt.*`` count doubles, and no time is added."""
        formula = and_(ge(x, 0), or_(lt(x, 3), gt(y, x)), le(add(x, y), 7))
        obs = ObsContext.create()
        with use_obs(obs), use_context(SmtContext()):
            check_sat(formula)
            first = obs.registry.snapshot()
            check_sat(formula)
            second = obs.registry.snapshot()
        assert second["smt.queries.oneshot"]["value"] == 2
        for name, entry in first.items():
            if entry["unit"] == "seconds":
                continue
            if entry["kind"] == "histogram":
                assert second[name]["count"] == 2 * entry["count"], name
                assert second[name]["sum"] == 2 * entry["sum"], name
            else:
                assert second[name]["value"] == 2 * entry["value"], name
        for name in ("smt.sat_seconds", "smt.theory_seconds"):
            assert first[name]["value"] > 0
            assert second[name]["value"] == first[name]["value"]
        assert second["smt.query_seconds"]["count"] == 2
        assert second["smt.query_seconds"]["sum"] == first["smt.query_seconds"]["sum"]


class TestQuantifiers:
    def test_quantified_hypothesis_instantiation(self):
        # forall i. 0 <= i < n => lookup(v, i) < m,  0 <= j < n |= lookup(v, j) < m
        i, j, n, m, v = Var("i"), Var("j"), Var("n"), Var("m"), Var("v")
        hypothesis = Forall(
            (("i", INT),),
            implies(and_(ge(i, 0), lt(i, n)), lt(App("lookup", (v, i), INT), m)),
        )
        goal = lt(App("lookup", (v, j), INT), m)
        assert is_valid([hypothesis, ge(j, 0), lt(j, n)], goal)

    def test_quantified_hypothesis_not_strong_enough(self):
        i, j, n, m, v = Var("i"), Var("j"), Var("n"), Var("m"), Var("v")
        hypothesis = Forall(
            (("i", INT),),
            implies(and_(ge(i, 0), lt(i, n)), lt(App("lookup", (v, i), INT), m)),
        )
        goal = lt(App("lookup", (v, j), INT), m)
        # j may be out of range, so the goal should not be provable
        assert not is_valid([hypothesis, ge(j, 0)], goal)

    def test_quantified_goal_skolemised(self):
        i, n = Var("i"), Var("n")
        goal = Forall((("i", INT),), implies(lt(i, n), lt(i, add(n, 1))))
        assert is_valid([], goal)


class TestTimeAccounting:
    def test_begin_check_time_is_not_taken_from_sat_time(self, monkeypatch):
        """``begin_check`` is theory time, and ``sat_time`` is the rest of
        the check.  With SAT search slowed by a known sleep and
        ``begin_check`` by a longer one, ``sat_time`` must still cover the
        SAT sleep: a clock started after ``begin_check`` subtracts its time
        from the SAT column and clamps it at zero."""
        import time

        from repro.smt.sat import SatSolver
        from repro.smt.theory import TheorySolver

        sat_sleep, begin_sleep = 0.05, 0.15
        register_active = TheorySolver._register_active
        solve = SatSolver.solve

        def slow_register_active(self):
            time.sleep(begin_sleep)
            return register_active(self)

        def slow_solve(self, *args, **kwargs):
            time.sleep(sat_sleep)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(TheorySolver, "_register_active", slow_register_active)
        monkeypatch.setattr(SatSolver, "solve", slow_solve)
        answer = solve_formula(and_(ge(x, 0), or_(lt(x, 3), gt(y, x))), engine="online")
        assert answer.is_sat
        assert answer.stats.theory_time >= begin_sleep
        assert answer.stats.sat_time >= sat_sleep
