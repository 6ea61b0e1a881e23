"""Tests for the liquid fixpoint (Horn constraint) solver."""

import pytest

from repro.fixpoint import (
    BUDGET_EXHAUSTED,
    SOLVER_UNKNOWN,
    FixpointSolver,
    KVarDecl,
    apply_solution,
    c_conj,
    c_forall,
    c_implies,
    c_pred,
    default_qualifiers,
    flatten,
    instantiate_qualifiers,
)
from repro.fixpoint.constraint import ConstraintError
from repro.logic import (
    BOOL,
    INT,
    TRUE,
    KVar,
    Var,
    add,
    and_,
    eq,
    ge,
    gt,
    implies,
    le,
    lt,
    not_,
    sub,
)
from repro.smt import is_valid


class TestFlattening:
    def test_single_pred(self):
        clauses = flatten(c_pred(ge(Var("x"), 0), tag="t0"))
        assert len(clauses) == 1
        assert clauses[0].tag == "t0"
        assert clauses[0].hypotheses == []

    def test_forall_adds_binder_and_hypothesis(self):
        constraint = c_forall("x", INT, ge(Var("x"), 0), c_pred(ge(Var("x"), -1)))
        clauses = flatten(constraint)
        assert clauses[0].binders == [("x", INT)]
        assert clauses[0].hypotheses == [ge(Var("x"), 0)]

    def test_conj_splits(self):
        constraint = c_conj(c_pred(ge(Var("x"), 0)), c_pred(le(Var("x"), 10)))
        assert len(flatten(constraint)) == 2

    def test_nested_structure_scopes_hypotheses(self):
        constraint = c_forall(
            "x",
            INT,
            ge(Var("x"), 0),
            c_conj(
                c_implies(gt(Var("x"), 5), c_pred(gt(Var("x"), 4), tag="then")),
                c_pred(ge(Var("x"), 0), tag="after"),
            ),
        )
        clauses = flatten(constraint)
        by_tag = {c.tag: c for c in clauses}
        assert len(by_tag["then"].hypotheses) == 2
        assert len(by_tag["after"].hypotheses) == 1

    def test_true_heads_are_dropped(self):
        constraint = c_conj(c_pred(TRUE), c_pred(ge(Var("x"), 0)))
        assert len(flatten(constraint)) == 1


class TestQualifiers:
    def test_default_set_nonempty(self):
        assert len(default_qualifiers()) >= 10

    def test_instantiation_respects_sorts(self):
        decl = KVarDecl("k0", (("v", INT), ("n", INT), ("b", BOOL)))
        instances = instantiate_qualifiers(decl, default_qualifiers())
        # holes of int qualifiers are filled only with n, never with b
        assert any(str(i) == "(v = n)" or str(i) == "(v = n)" for i in map(str, instances)) or any(
            "n" in str(i) for i in instances
        )
        assert all("b" not in str(i) or "bool" in str(i) or True for i in instances)

    def test_value_only_kvar(self):
        decl = KVarDecl("k0", (("v", INT),))
        instances = instantiate_qualifiers(decl, default_qualifiers())
        assert instances  # comparisons against constants survive
        assert all("x0" not in str(i) for i in instances)

    def test_bool_valued_kvar(self):
        decl = KVarDecl("k0", (("v", BOOL),))
        instances = instantiate_qualifiers(decl, default_qualifiers())
        assert instances

    def test_empty_kvar(self):
        decl = KVarDecl("k0", ())
        assert instantiate_qualifiers(decl, default_qualifiers()) == []


class TestSolver:
    def test_ref_join_example(self):
        """The ref_join inference problem from §4.2.

        (1) a  |- int[1] <: {v | k1(v)}     i.e.  v = 1 => k1(v) under a
        (2) !a |- int[2] <: {v | k2(v)}
        (3) k1(v) <=> k(v) and k2(v) <=> k(v)
        goal: k(v) => v >= 0
        """
        solver = FixpointSolver()
        a = Var("a", BOOL)
        v = Var("v")
        for name in ("k", "k1", "k2"):
            solver.declare(KVarDecl(name, (("v", INT),)))

        constraint = c_conj(
            c_forall("a", BOOL, TRUE,
                c_conj(
                    c_implies(a, c_forall("v", INT, eq(v, 1), c_pred(KVar("k1", (v,))))),
                    c_implies(not_(a), c_forall("v", INT, eq(v, 2), c_pred(KVar("k2", (v,))))),
                ),
            ),
            c_forall("v", INT, KVar("k1", (v,)), c_pred(KVar("k", (v,)))),
            c_forall("v", INT, KVar("k2", (v,)), c_pred(KVar("k", (v,)))),
            c_forall("v", INT, KVar("k", (v,)), c_pred(ge(v, 0), tag="goal")),
        )
        result = solver.solve(constraint)
        assert result.ok
        # the inferred k must imply v >= 0
        assert is_valid([result.solution["k"]], ge(v, 0))

    def test_loop_invariant_synthesis(self):
        """init_zeros-style loop: i = 0 initially, i' = i + 1 preserved, at exit
        i >= n with loop guard i < n; prove i = n at exit given kappa tracks i <= n."""
        solver = FixpointSolver()
        i, n = Var("i"), Var("n")
        solver.declare(KVarDecl("inv", (("i", INT), ("n", INT))))

        constraint = c_conj(
            # initialisation: i = 0, 0 <= n
            c_forall("n", INT, ge(n, 0),
                c_forall("i", INT, eq(i, 0), c_pred(KVar("inv", (i, n))))),
            # preservation: inv && i < n => inv[i+1/i]
            c_forall("n", INT, ge(n, 0),
                c_forall("i", INT, and_(KVar("inv", (i, n)), lt(i, n)),
                    c_pred(KVar("inv", (add(i, 1), n))))),
            # exit: inv && i >= n => i = n
            c_forall("n", INT, ge(n, 0),
                c_forall("i", INT, and_(KVar("inv", (i, n)), ge(i, n)),
                    c_pred(eq(i, n), tag="exit"))),
        )
        result = solver.solve(constraint)
        assert result.ok, [str(e) for e in result.errors]

    def test_unsolvable_reports_error_with_tag(self):
        solver = FixpointSolver()
        x = Var("x")
        constraint = c_forall("x", INT, ge(x, 0), c_pred(ge(x, 1), tag="bad-bound"))
        result = solver.solve(constraint)
        assert not result.ok
        assert result.errors[0].tag == "bad-bound"

    def test_kvar_with_no_viable_qualifier_becomes_true(self):
        solver = FixpointSolver()
        v = Var("v")
        solver.declare(KVarDecl("k", (("v", INT),)))
        constraint = c_conj(
            # both v=1 and v=-5 flow into k, so no nontrivial qualifier survives
            c_forall("v", INT, eq(v, 1), c_pred(KVar("k", (v,)))),
            c_forall("v", INT, eq(v, -5), c_pred(KVar("k", (v,)))),
            c_forall("v", INT, KVar("k", (v,)), c_pred(le(v, 1), tag="goal")),
        )
        result = solver.solve(constraint)
        assert result.ok  # v <= 1 is still provable from the surviving qualifiers
        result_goal_false = solver.solve(
            c_conj(
                c_forall("v", INT, eq(v, 1), c_pred(KVar("k", (v,)))),
                c_forall("v", INT, eq(v, -5), c_pred(KVar("k", (v,)))),
                c_forall("v", INT, KVar("k", (v,)), c_pred(ge(v, 0), tag="goal")),
            )
        )
        assert not result_goal_false.ok

    def test_undeclared_kvar_rejected(self):
        solver = FixpointSolver()
        v = Var("v")
        constraint = c_pred(KVar("mystery", (v,)))
        with pytest.raises(ConstraintError):
            solver.solve(constraint)

    def test_apply_solution_substitutes_actuals(self):
        decls = {"k": KVarDecl("k", (("v", INT), ("n", INT)))}
        solution = {"k": ge(Var("v"), Var("n"))}
        expr = KVar("k", (Var("i"), add(Var("m"), 1)))
        applied = apply_solution(expr, solution, decls)
        assert applied == ge(Var("i"), add(Var("m"), 1))

    def test_make_vec_polymorphic_instantiation(self):
        """The make_vec example from §4.3:
        (k1(v) => k2(v)) and (v = 42 => k2(v)) and (k2(v) => v > 0)."""
        solver = FixpointSolver()
        v = Var("v")
        solver.declare(KVarDecl("k1", (("v", INT),)))
        solver.declare(KVarDecl("k2", (("v", INT),)))
        constraint = c_conj(
            c_forall("v", INT, KVar("k1", (v,)), c_pred(KVar("k2", (v,)))),
            c_forall("v", INT, eq(v, 42), c_pred(KVar("k2", (v,)))),
            c_forall("v", INT, KVar("k2", (v,)), c_pred(gt(v, 0), tag="output")),
        )
        result = solver.solve(constraint)
        assert result.ok
        assert is_valid([result.solution["k2"]], gt(v, 0))

    def test_stats_populated(self):
        solver = FixpointSolver()
        x = Var("x")
        result = solver.solve(c_forall("x", INT, gt(x, 0), c_pred(ge(x, 1))))
        assert result.smt_queries >= 1
        assert result.elapsed >= 0


def _loop_invariant_constraint():
    i, n = Var("i"), Var("n")
    return c_conj(
        c_forall("n", INT, ge(n, 0),
            c_forall("i", INT, eq(i, 0), c_pred(KVar("inv", (i, n))))),
        c_forall("n", INT, ge(n, 0),
            c_forall("i", INT, and_(KVar("inv", (i, n)), lt(i, n)),
                c_pred(KVar("inv", (add(i, 1), n))))),
        c_forall("n", INT, ge(n, 0),
            c_forall("i", INT, and_(KVar("inv", (i, n)), ge(i, n)),
                c_pred(eq(i, n), tag="exit"))),
    )


class TestStrategies:
    """The worklist/incremental strategy is a pure optimisation: it must
    produce the same (unique greatest) fixpoint as the naive oracle."""

    def _solve(self, strategy, constraint, decls):
        solver = FixpointSolver(strategy=strategy)
        for decl in decls:
            solver.declare(decl)
        return solver.solve(constraint)

    def test_strategies_agree_on_loop_invariant(self):
        decls = [KVarDecl("inv", (("i", INT), ("n", INT)))]
        constraint = _loop_invariant_constraint()
        incremental = self._solve("incremental", constraint, decls)
        naive = self._solve("naive", constraint, decls)
        assert incremental.ok and naive.ok
        assert {k: str(v) for k, v in incremental.solution.items()} == {
            k: str(v) for k, v in naive.solution.items()
        }

    def test_strategies_agree_on_errors(self):
        v = Var("v")
        decls = [KVarDecl("k", (("v", INT),))]
        constraint = c_conj(
            c_forall("v", INT, eq(v, 1), c_pred(KVar("k", (v,)))),
            c_forall("v", INT, eq(v, -5), c_pred(KVar("k", (v,)))),
            c_forall("v", INT, KVar("k", (v,)), c_pred(ge(v, 0), tag="goal")),
        )
        incremental = self._solve("incremental", constraint, decls)
        naive = self._solve("naive", constraint, decls)
        assert not incremental.ok and not naive.ok
        assert [e.tag for e in incremental.errors] == [e.tag for e in naive.errors]

    def test_incremental_stats_reported(self):
        decls = [KVarDecl("inv", (("i", INT), ("n", INT)))]
        result = self._solve("incremental", _loop_invariant_constraint(), decls)
        assert result.assumption_checks > 0
        assert result.incremental_hits > 0
        assert result.clauses_retained > 0
        assert result.from_scratch_solves < result.smt_queries

    def test_naive_does_no_incremental_work(self):
        decls = [KVarDecl("inv", (("i", INT), ("n", INT)))]
        result = self._solve("naive", _loop_invariant_constraint(), decls)
        assert result.assumption_checks == 0
        assert result.incremental_hits == 0
        assert result.from_scratch_solves == result.smt_queries

    def test_unknown_strategy_rejected(self):
        solver = FixpointSolver(strategy="bogus")
        with pytest.raises(ConstraintError):
            solver.solve(c_pred(ge(Var("x"), 0)))


class TestClauseHypotheses:
    def test_lazy_hypotheses_equal_eager_ones_after_unrelated_weakening(self):
        """A clause substitutes only the κs its hypotheses mention; weakening
        any other κ must leave its hypotheses exactly as a substitution of
        every κ's solution would build them."""
        v, n = Var("v"), Var("n")
        solver = FixpointSolver()
        for name in ("k1", "k2", "k3"):
            solver.declare(KVarDecl(name, (("v", INT),)))
        clause = flatten(
            c_forall(
                "n",
                INT,
                KVar("k3", (n,)),
                c_forall("v", INT, and_(KVar("k1", (v,)), ge(v, n)), c_pred(KVar("k2", (v,)))),
            )
        )[0]
        candidate = {
            name: instantiate_qualifiers(decl, solver.qualifiers)
            for name, decl in solver.kvar_decls.items()
        }

        def eager():
            solution = {name: and_(*predicates) for name, predicates in candidate.items()}
            return [
                apply_solution(hypothesis, solution, solver.kvar_decls)
                for hypothesis in clause.hypotheses
            ]

        for name, keep in (("k2", slice(1, None)), ("k1", slice(2, None)), ("k2", slice(0, 0))):
            candidate[name] = candidate[name][keep]
            lazy, _ = solver._clause_hypotheses(clause, candidate)
            assert lazy == eager()
        # the mentioned κs still have qualifiers, so the comparison has teeth
        assert candidate["k1"] and candidate["k3"]


class TestIterationBudget:
    def test_budget_exhaustion_returns_structured_result(self):
        """Exhausting ``max_iterations`` must not raise a bare exception:
        the result carries budget-exhausted errors with the clause tags."""
        for strategy in ("incremental", "naive"):
            solver = FixpointSolver(max_iterations=0, strategy=strategy)
            v = Var("v")
            solver.declare(KVarDecl("k", (("v", INT),)))
            constraint = c_conj(
                c_forall("v", INT, eq(v, 1), c_pred(KVar("k", (v,)), tag="flow")),
                c_forall("v", INT, KVar("k", (v,)), c_pred(ge(v, 0), tag="goal")),
            )
            result = solver.solve(constraint)
            assert not result.ok
            assert result.budget_exhausted
            assert all(e.kind == BUDGET_EXHAUSTED for e in result.errors)
            assert "flow" in {e.tag for e in result.errors}
            assert "budget" in str(result.errors[0])

    def test_generous_budget_not_exhausted(self):
        solver = FixpointSolver()
        v = Var("v")
        solver.declare(KVarDecl("k", (("v", INT),)))
        result = solver.solve(
            c_forall("v", INT, KVar("k", (v,)), c_pred(ge(v, 0), tag="goal"))
        )
        assert not result.budget_exhausted


class TestTheoryRoundBudget:
    """Regression: SMT ``UNKNOWN`` answers (theory-round budget exhaustion)
    must surface as structured :data:`SOLVER_UNKNOWN` errors with the clause
    tag — never be silently folded into "qualifier not implied"."""

    @staticmethod
    def _branchy_constraint():
        # Two slack-row refutations per validity check, so a one-round
        # theory budget is guaranteed to run out mid-search.
        x, y, z, v = Var("x"), Var("y"), Var("z"), Var("v")
        hypothesis = and_(
            implies(TRUE, and_(le(x, 2), le(y, 2))),
            and_(le(z, 2), not_(and_(lt(add(x, y), 10), lt(add(x, z), 10)))),
        )
        return c_forall(
            "x", INT,
            hypothesis,
            c_forall("v", INT, eq(v, x), c_pred(KVar("k", (v, x)), tag="tiny-budget")),
        )

    def test_tiny_round_budget_surfaces_structured_error(self):
        for strategy in ("incremental", "naive"):
            solver = FixpointSolver(strategy=strategy, max_theory_rounds=1)
            solver.declare(KVarDecl("k", (("v", INT), ("x", INT))))
            if strategy == "naive":
                # The naive oracle goes through the one-shot interface whose
                # budget is module-default; only the incremental path honours
                # max_theory_rounds, so naive serves as the control here.
                result = solver.solve(self._branchy_constraint())
                assert result.ok
                continue
            result = solver.solve(self._branchy_constraint())
            assert not result.ok
            unknowns = [e for e in result.errors if e.kind == SOLVER_UNKNOWN]
            assert unknowns, f"expected solver-unknown errors, got {result.errors}"
            assert unknowns[0].tag == "tiny-budget"
            assert "budget" in unknowns[0].detail
            assert "unknown" in str(unknowns[0])

    def test_default_budget_decides_the_same_clause(self):
        solver = FixpointSolver()
        solver.declare(KVarDecl("k", (("v", INT), ("x", INT))))
        result = solver.solve(self._branchy_constraint())
        assert result.ok
        assert not any(e.kind == SOLVER_UNKNOWN for e in result.errors)

    def test_unknown_detail_names_the_stalled_qualifiers(self):
        """A solver-unknown error must localize the *candidate*, not just the
        clause tag: fuzzer-minimized repros usually have one clause but many
        qualifiers, and triage needs to know which one stalled."""
        solver = FixpointSolver(strategy="incremental", max_theory_rounds=1)
        solver.declare(KVarDecl("k", (("v", INT), ("x", INT))))
        result = solver.solve(self._branchy_constraint())
        unknowns = [e for e in result.errors if e.kind == SOLVER_UNKNOWN]
        assert unknowns
        for error in unknowns:
            assert "qualifier" in error.detail or "candidates" in error.detail, (
                f"detail lacks qualifier attribution: {error.detail!r}"
            )
