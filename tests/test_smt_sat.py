"""Unit tests for the CDCL SAT core."""

import itertools
import random

import pytest

from repro.smt.sat import SatSolver


@pytest.fixture(autouse=True)
def _verify_models():
    """Every SAT answer in this suite is re-checked against the clause DB."""
    SatSolver.verify_models = True
    yield
    SatSolver.verify_models = False


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


class TestBasics:
    def test_empty_formula_is_sat(self):
        solver = SatSolver()
        assert solver.solve() == {}

    def test_single_unit_clause(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v])
        model = solver.solve()
        assert model == {v: True}

    def test_conflicting_units(self):
        solver = SatSolver()
        v = solver.new_var()
        solver.add_clause([v])
        solver.add_clause([-v])
        assert solver.solve() is None

    def test_empty_clause_is_unsat(self):
        solver = SatSolver()
        solver.new_var()
        assert solver.add_clause([]) is False
        assert solver.solve() is None

    def test_tautology_ignored(self):
        solver = SatSolver()
        v = solver.new_var()
        assert solver.add_clause([v, -v]) is True
        assert solver.solve() is not None

    def test_unknown_variable_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            solver.add_clause([1])

    def test_simple_implication_chain(self):
        solver = SatSolver()
        a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        model = solver.solve()
        assert model[a] and model[b] and model[c]

    def test_pigeonhole_2_in_1_unsat(self):
        # two pigeons, one hole
        solver = SatSolver()
        p1, p2 = solver.new_var(), solver.new_var()
        solver.add_clause([p1])
        solver.add_clause([p2])
        solver.add_clause([-p1, -p2])
        assert solver.solve() is None

    def test_model_satisfies_clauses(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(4)]
        clauses = [
            [variables[0], variables[1]],
            [-variables[0], variables[2]],
            [-variables[1], -variables[2], variables[3]],
            [-variables[3], variables[0]],
        ]
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        assert model is not None
        for clause in clauses:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause)


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, b])
        model = solver.solve(assumptions=[a])
        assert model[a] is True and model[b] is True

    def test_contradictory_assumptions(self):
        solver = SatSolver()
        a = solver.new_var()
        assert solver.solve(assumptions=[a, -a]) is None

    def test_assumption_conflicts_with_clause(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([-a])
        assert solver.solve(assumptions=[a]) is None

    def test_resolvable_without_assumption(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([-a])
        model = solver.solve()
        assert model[a] is False


def _random_cnf(rng):
    """Random 2-/3-CNF.  No unit clauses: those always backtrack to level 0,
    which would hide the mid-trail installation path."""
    num_vars = rng.randint(4, 9)
    clauses = []
    for _ in range(rng.randint(8, 40)):
        size = rng.randint(2, 3)
        clause = [
            var if rng.random() < 0.5 else -var
            for var in (rng.randint(1, num_vars) for _ in range(size))
        ]
        clauses.append(clause)
    return num_vars, clauses


def _pigeonhole(pigeons, holes):
    """CNF for 'each pigeon gets a hole, no hole two pigeons' (UNSAT when
    pigeons > holes); the classic resolution-hard family, a reliable source
    of conflicts and backjumps."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestIncremental:
    def test_interleaved_add_clause_and_solve_match_brute_force(self):
        """Clauses installed into a live trail between solves whose
        assumption lists share a leading literal: every answer matches brute
        force on the clauses added so far (trail-prefix reuse must survive
        mid-trail clause installation, and must drop the levels the next
        assumption list contradicts)."""
        rng = random.Random(77_123)
        for _ in range(40):
            num_vars, clauses = _random_cnf(rng)
            solver = SatSolver()
            for _ in range(num_vars):
                solver.new_var()
            x, y = rng.sample(range(1, num_vars + 1), 2)
            x = x if rng.random() < 0.5 else -x
            assumption_lists = ([x, y], [x, -y])
            for i, clause in enumerate(clauses):
                added = clauses[: i + 1]
                if not solver.add_clause(list(clause)):
                    assert not brute_force_sat(num_vars, added)
                    break
                if i % 4 == 3:
                    assumptions = assumption_lists[(i // 4) % 2]
                    units = [[lit] for lit in assumptions]
                    expected = brute_force_sat(num_vars, added + units)
                    assert (solver.solve(assumptions) is not None) == expected
            else:
                expected = brute_force_sat(num_vars, clauses)
                assert (solver.solve() is not None) == expected

    def test_clause_added_between_solves(self):
        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve() is not None
        solver.add_clause([-a])
        solver.add_clause([-b])
        assert solver.solve() is None

    def test_blocking_clause_enumeration(self):
        solver = SatSolver()
        variables = [solver.new_var() for _ in range(3)]
        solver.add_clause(variables)  # at least one true
        models = []
        while True:
            model = solver.solve()
            if model is None:
                break
            models.append(tuple(model[v] for v in variables))
            solver.add_clause([-v if model[v] else v for v in variables])
        assert len(set(models)) == 7  # all assignments except all-false


class TestRandomAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_3sat(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 8)
        num_clauses = rng.randint(3, 25)
        clauses = []
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            clause = []
            for _ in range(size):
                var = rng.randint(1, num_vars)
                clause.append(var if rng.random() < 0.5 else -var)
            clauses.append(clause)
        expected = brute_force_sat(num_vars, clauses)

        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        trivially_unsat = False
        for clause in clauses:
            if not solver.add_clause(clause):
                trivially_unsat = True
        model = None if trivially_unsat else solver.solve()
        assert (model is not None) == expected
        if model is not None:
            for clause in clauses:
                if any(-lit in clause for lit in clause):
                    continue  # tautologies are dropped by the solver
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)


class TestPigeonhole:
    @pytest.mark.parametrize("pigeons", [5, 6])
    def test_unsat_and_phase_saving_fires(self, pigeons):
        num_vars, clauses = _pigeonhole(pigeons, pigeons - 1)
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            assert solver.add_clause(clause)
        assert solver.solve() is None
        # Pigeonhole backjumps constantly, so decisions after the first few
        # conflicts find saved polarities to reuse.
        assert solver.solve_phase_saving_hits > 0

    @pytest.mark.parametrize(
        "pigeons, holes",
        [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)],
    )
    def test_verdict_matches_counting(self, pigeons, holes):
        num_vars, clauses = _pigeonhole(pigeons, holes)
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        assert (model is not None) == (pigeons <= holes)
        if model is not None:
            placed = [
                [h for h in range(holes) if model[p * holes + h + 1]]
                for p in range(pigeons)
            ]
            assert all(placed)
            for h in range(holes):
                assert sum(h in row for row in placed) <= 1


def _solver_with(num_vars, clauses=()):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestPolarity:
    """Phase saving is always on and a never-assigned variable is decided
    false."""

    def test_fresh_variables_are_decided_false(self):
        solver = _solver_with(5)
        assert solver.solve() == {v: False for v in range(1, 6)}
        assert solver.solve_decisions == 5
        assert solver.solve_phase_saving_hits == 0

    def test_assumed_polarity_is_saved_for_later_decisions(self):
        a, b = 1, 2
        solver = _solver_with(2, [[-a, b]])
        assert solver.solve([a]) == {a: True, b: True}
        # a is a free decision now; it takes the polarity saved from the
        # previous call, not the default false.
        assert solver.solve() == {a: True, b: True}
        assert solver.solve_decisions == 1
        assert solver.solve_phase_saving_hits == 1

    def test_propagated_polarity_is_saved(self):
        a, b = 1, 2
        solver = _solver_with(2, [[-a, b]])
        assert solver.solve([a])[b] is True  # b implied, never decided
        assert solver.solve([-a]) == {a: False, b: True}


def _record_backtracks(solver, monkeypatch):
    targets = []
    original = solver._backtrack

    def recording(target):
        targets.append(target)
        original(target)

    monkeypatch.setattr(solver, "_backtrack", recording)
    return targets


class TestTrailReuse:
    """``solve`` keeps the leading decision levels the new assumption list
    would rebuild verbatim, and retracts the rest."""

    A, B, C, D = 1, 2, 3, 4

    @pytest.mark.parametrize(
        "first, second, kept",
        [
            pytest.param([A, B], [A, B], 2, id="repeat"),
            pytest.param([A, B], [A, C], 1, id="shared-leading-literal"),
            pytest.param([A, B], [B, A], 0, id="reordered"),
            pytest.param([A, B], [-A, B], 0, id="contradicted-leader"),
            pytest.param([A, B], [], 0, id="no-assumptions"),
            pytest.param([A], [A, D], 1, id="implied-inside-prefix"),
            pytest.param([A, B], [A, D, B], 2, id="implied-between-levels"),
        ],
    )
    def test_kept_levels(self, first, second, kept, monkeypatch):
        # D is implied by A at A's level; the free decisions after the
        # assumptions always sit above them and never survive.
        solver = _solver_with(5, [[-self.A, self.D]])
        assert solver.solve(first) is not None
        targets = _record_backtracks(solver, monkeypatch)
        model = solver.solve(second)
        assert targets[0] == kept
        assert all(model[abs(lit)] == (lit > 0) for lit in second)
        assert not model[self.A] or model[self.D]


def _watch_invariant_holds(solver):
    watches = solver._watches
    for index, clause in enumerate(solver._clauses):
        if len(clause) < 2:
            continue
        if index not in watches[solver._windex(clause[0])]:
            return False
        if index not in watches[solver._windex(clause[1])]:
            return False
    return True


class TestAddClauseUnwind:
    """``add_clause`` on a live trail unwinds only until the new clause has
    two non-false literals; a unit clause resets to level 0."""

    # Assumptions plant a, b, c at levels 1-3; u and w are then free
    # decisions, both false, at levels 4 and 5.
    A, B, C, U, W = 1, 2, 3, 4, 5

    @pytest.mark.parametrize(
        "clause, level",
        [
            pytest.param([-U, -W], 5, id="two-true-literals"),
            pytest.param([W, -U], 4, id="one-true-one-false"),
            pytest.param([U, W], 3, id="two-false-top-levels"),
            pytest.param([-C, -B, U], 2, id="three-false"),
            pytest.param([-C, B], 2, id="false-above-true"),
            pytest.param([-A, W], 0, id="false-at-level-1"),
            pytest.param([W], 0, id="unit"),
            pytest.param([A, -A], 5, id="tautology"),
        ],
    )
    def test_unwinds_to_expected_level(self, clause, level):
        solver = _solver_with(5)
        assert solver.solve([self.A, self.B, self.C]) == {
            self.A: True, self.B: True, self.C: True, self.U: False, self.W: False
        }
        assert solver._decision_level() == 5
        assert solver.add_clause(clause)
        assert solver._decision_level() == level
        assert _watch_invariant_holds(solver)
        model = solver.solve([self.A, self.B, self.C])
        assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_watch_invariant_survives_interleaving(self):
        rng = random.Random(4_711)
        for _ in range(30):
            num_vars, clauses = _random_cnf(rng)
            solver = _solver_with(num_vars)
            for i, clause in enumerate(clauses):
                if not solver.add_clause(clause):
                    break
                assert _watch_invariant_holds(solver)
                if i % 3 == 2:
                    lead = rng.randint(1, num_vars)
                    solver.solve([lead if rng.random() < 0.5 else -lead])
                    assert _watch_invariant_holds(solver)


def _checked_analysis(solver, monkeypatch):
    """Wrap ``_analyze`` to check each learned clause is asserting at the
    moment it is learned; returns the list of learned clauses."""
    learned_clauses = []
    original = solver._analyze

    def checked(conflict_index):
        current = solver._decision_level()
        learned, backjump = original(conflict_index)
        level = solver._level
        assert len({abs(lit) for lit in learned}) == len(learned)
        assert all(solver._value(lit) is False for lit in learned)
        assert all(level[abs(lit)] > 0 for lit in learned)
        assert level[abs(learned[0])] == current
        rest = [level[abs(lit)] for lit in learned[1:]]
        assert all(lit_level < current for lit_level in rest)
        assert backjump == (rest[0] if rest else 0)
        assert backjump == max(rest, default=0)
        learned_clauses.append(list(learned))
        return learned, backjump

    monkeypatch.setattr(solver, "_analyze", checked)
    return learned_clauses


def _family_instances(family):
    """``(num_vars, clauses, assumption lists)`` triples for one family."""
    if family.startswith("pigeonhole"):
        num_vars, clauses = _pigeonhole(4, 3)
        return [(num_vars, clauses, [[]])]
    rng = random.Random({"random-2cnf": 11, "random-3cnf": 13, "assumptions": 17}[family])
    instances = []
    for _ in range(25):
        num_vars = rng.randint(5, 9)
        width = 2 if family == "random-2cnf" else 3
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), width)]
            for _ in range(rng.randint(10, 45))
        ]
        lists = [[]]
        if family == "assumptions":
            lists = [
                [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 2)]
                for _ in range(4)
            ]
        instances.append((num_vars, clauses, lists))
    return instances


ANALYSIS_FAMILIES = ["random-2cnf", "random-3cnf", "assumptions", "pigeonhole"]


class TestConflictAnalysis:
    @pytest.mark.parametrize("family", ANALYSIS_FAMILIES)
    def test_learned_clauses_are_asserting(self, family, monkeypatch):
        learned_total = 0
        for num_vars, clauses, lists in _family_instances(family):
            solver = _solver_with(num_vars, clauses)
            learned = _checked_analysis(solver, monkeypatch)
            for assumptions in lists:
                solver.solve(assumptions)
            learned_total += len(learned)
        assert learned_total > 0

    @pytest.mark.parametrize("family", ANALYSIS_FAMILIES)
    def test_learned_clauses_are_entailed(self, family, monkeypatch):
        """Every learned clause (after minimization) is a consequence of the
        problem clauses alone — never of the assumptions in force."""
        for num_vars, clauses, lists in _family_instances(family):
            solver = _solver_with(num_vars, clauses)
            learned = _checked_analysis(solver, monkeypatch)
            for assumptions in lists:
                solver.solve(assumptions)
            for clause in learned:
                negation = [[-lit] for lit in clause]
                assert not brute_force_sat(num_vars, clauses + negation), clause

    def test_minimization_drops_literal_implied_by_the_rest(self, monkeypatch):
        # y is implied at b's level by a and b; the conflict after c would
        # learn (-c, -y, -a, -b), and y's reason is subsumed by the other
        # literals, so minimization must drop -y.
        a, b, c, y, z1, z2, unrelated = range(1, 8)
        solver = _solver_with(7, [
            [y, -a, -b],
            [-c, z1],
            [-c, z2],
            [-z1, -z2, -y, -a, -b],
        ])
        learned = _checked_analysis(solver, monkeypatch)
        assert solver.solve([a, b, c]) is None
        assert [sorted(clause) for clause in learned] == [sorted([-a, -b, -c])]
        # the conflict bumped every variable it touched, and nothing else
        activity = solver._activity
        assert all(activity[v] > 0 for v in (a, b, c, y, z1, z2))
        assert activity[unrelated] == 0
        model = solver.solve([a, b])
        assert model[c] is False and model[y] is True


class TestActivity:
    def test_branching_follows_activity(self):
        solver = _solver_with(4)
        solver._bump(3)
        solver._bump(3)
        solver._bump(2)
        assert solver.solve() is not None
        assert solver._trail == [-3, -2, -1, -4]

    def test_increment_grows_per_conflict(self):
        num_vars, clauses = _pigeonhole(5, 4)
        solver = _solver_with(num_vars, clauses)
        assert solver.solve() is None
        # every conflict but the last, at level 0, learned a clause
        assert solver.num_conflicts > 1
        assert solver._activity_inc == pytest.approx(1.05 ** (solver.num_conflicts - 1))

    def test_rescale_preserves_order(self):
        solver = _solver_with(3)
        solver._bump(1)
        solver._activity_inc = 2e100
        solver._bump(2)
        activity = solver._activity
        assert max(activity) < 1e100
        assert solver._activity_inc == pytest.approx(2.0)
        assert activity[2] > activity[1] > activity[3] == 0
        assert solver.solve() is not None
        assert solver._trail == [-2, -1, -3]


class TestCounters:
    def test_per_call_deltas_sum_to_totals(self):
        rng = random.Random(2_024)
        num_vars, clauses = _random_cnf(rng)
        solver = _solver_with(num_vars, clauses)
        totals = [0, 0, 0, 0]
        for _ in range(6):
            lead = rng.randint(1, num_vars)
            solver.solve([lead, -(lead % num_vars + 1)])
            totals[0] += solver.solve_conflicts
            totals[1] += solver.solve_decisions
            totals[2] += solver.solve_propagations
            totals[3] += solver.solve_phase_saving_hits
        assert totals == [
            solver.num_conflicts,
            solver.num_decisions,
            solver.num_propagations,
            solver.num_phase_saving_hits,
        ]

    def test_latched_unsat_does_no_work(self):
        num_vars, clauses = _pigeonhole(4, 3)
        solver = _solver_with(num_vars, clauses)
        assert solver.solve() is None
        assert solver.solve_conflicts == solver.num_conflicts > 0
        assert solver.solve() is None
        assert (solver.solve_conflicts, solver.solve_decisions) == (0, 0)
        assert solver.solve_propagations == 0


class TestVerifyModels:
    def test_bogus_model_is_caught(self):
        # A clause smuggled past add_clause is never watched, so the search
        # can return a model that violates it; verify_models must notice.
        a, b = 1, 2
        solver = _solver_with(2, [[a, b]])
        solver._clauses.append([-b])
        with pytest.raises(AssertionError, match="bogus SAT model"):
            solver.solve()
