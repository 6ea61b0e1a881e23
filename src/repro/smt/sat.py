"""A CDCL SAT solver with an online theory hook (DPLL(T)).

This is the propositional core of the SMT stack.  It implements
conflict-driven clause learning with:

* two-watched-literal unit propagation over flat integer arrays — only the
  clauses watching a falsified literal are examined, and backtracking never
  touches the watch lists,
* first-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* phase saving with progress-saving polarity: every assignment records its
  polarity, and decisions reuse the saved polarity across backjumps (a
  variable that was never assigned is decided false),
* an exponentially-decayed (VSIDS-style) activity heuristic served from a
  lazy binary heap,
* an optional *theory solver* (:meth:`SatSolver.attach_theory`): newly
  assigned literals are asserted into the theory as the trail grows, theory
  conflicts at partial assignments become learned clauses, theory-implied
  literals are enqueued as propagations with reason clauses, a cheap theory
  check runs before every decision, and a complete theory check gates every
  SAT answer, and
* an optional final verification pass over all clauses before a SAT answer
  is returned (``verify_models``; the randomized test suite turns it on).

Literals are encoded as signed integers (DIMACS convention): variable ``v``
is the positive literal ``v`` and its negation ``-v``.  Variables are
allocated with :meth:`SatSolver.new_var` and numbered from 1.  Internally a
literal ``l`` indexes the watch table at ``2*l`` (positive) or ``2*(-l)+1``
(negative).

The clause database is append-only — learned clauses and theory lemmas are
kept for the solver's lifetime — so the clause *indices* stored in watch
lists and reason pointers stay valid forever.  Liquid inference issues many
small checks per solver, far too few conflicts for restarts or clause-DB
reduction to pay (see ``docs/smt.md``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple


class SatSolver:
    """Conflict-driven clause learning SAT solver."""

    #: When set, every SAT answer is re-checked against the full clause
    #: database before being returned.  Off by default: the check is O(DB)
    #: per answer and the theory loop above re-validates models anyway.
    verify_models = False

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        # watch lists indexed by literal code (2*v for v, 2*v+1 for -v)
        self._watches: List[List[int]] = [[], []]
        # per-variable arrays, indexed 1..num_vars (slot 0 unused)
        self._assigns: List[int] = [0]  # 0 unassigned, 1 true, -1 false
        self._reason: List[int] = [-1]  # antecedent clause index, -1 for decisions
        self._level: List[int] = [0]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._phase_set: List[bool] = [False]  # has a saved (progress) polarity
        self._seen: List[bool] = [False]  # scratch for _analyze, cleared after use
        self._heap: List[Tuple[float, int]] = []
        # Activity value of the freshest heap entry per variable, or -1.0
        # when no known-fresh entry exists.  Backtracking only re-pushes a
        # variable when its activity moved since the entry was pushed, which
        # cuts the heap churn of deep backjump/replant cycles by an order of
        # magnitude (the heap is lazy: stale entries are discarded on pop).
        self._act_entry: List[float] = [-1.0]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity_inc = 1.0
        self._unsat = False
        self._qhead = 0
        self._theory = None
        self._theory_vars = None  # theory-atom variables (shared mapping)
        self._theory_head = 0  # trail entries already asserted into the theory
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0
        self.num_phase_saving_hits = 0
        # Cumulative totals at the entry of the current/most recent ``solve``
        # call; the ``solve_*`` properties read per-call deltas off them.
        self._solve_base = (0, 0, 0, 0)

    @property
    def solve_conflicts(self) -> int:
        """Conflicts during the current/most recent :meth:`solve` call."""
        return self.num_conflicts - self._solve_base[0]

    @property
    def solve_decisions(self) -> int:
        """Decisions during the current/most recent :meth:`solve` call."""
        return self.num_decisions - self._solve_base[1]

    @property
    def solve_propagations(self) -> int:
        """Propagations during the current/most recent :meth:`solve` call."""
        return self.num_propagations - self._solve_base[2]

    @property
    def solve_phase_saving_hits(self) -> int:
        """Decisions that reused a saved polarity during the current call."""
        return self.num_phase_saving_hits - self._solve_base[3]

    # -- theory hook ---------------------------------------------------------

    def attach_theory(self, theory) -> None:
        """Install a theory solver for online DPLL(T) search.

        ``theory`` follows the :class:`repro.smt.theory.TheorySolver`
        protocol: ``assert_literal``/``shrink_to_trail`` mirror the trail,
        ``drain_propagations`` yields implied literals with reasons,
        ``partial_check`` runs before every decision and ``final_check``
        gates SAT answers.  The caller is responsible for arming the theory
        (``begin_check``) before each :meth:`solve`.
        """
        self._theory = theory
        self._theory_vars = theory.watched_vars()
        self._theory_head = 0

    def detach_theory(self) -> None:
        self._theory = None
        self._theory_vars = None
        self._theory_head = 0

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        self._num_vars += 1
        var = self._num_vars
        self._assigns.append(0)
        self._reason.append(-1)
        self._level.append(0)
        self._activity.append(0.0)
        self._phase.append(False)
        self._phase_set.append(False)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        self._act_entry.append(0.0)
        heappush(self._heap, (-0.0, var))
        return var

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause.  Returns ``False`` if the formula became trivially unsat.

        Clauses may be added between :meth:`solve` calls; this is how the
        lazy SMT loop injects theory blocking clauses.  The clause is first
        simplified against the permanent level-0 assignment — satisfied
        clauses are dropped, falsified literals removed.  Unlike the MiniSat
        discipline this does *not* reset the search to level 0: the trail is
        only unwound far enough that the new clause has two non-false
        literals to watch, so the assumption-prefix trail shared by a burst
        of incremental checks survives clause additions (unit clauses are
        the exception — they are permanent consequences and assign at level
        0).  Propagations the new clause enables below the surviving levels
        cannot be missed: backtracking leaves the clause with two free
        watchers, and any future falsification of a watcher visits it.
        """
        if self._unsat:
            return False
        unique = set(literals)
        lits = sorted(unique, key=abs)
        if any(-lit in unique for lit in lits):
            return True  # tautology, never useful
        for lit in lits:
            if not 1 <= abs(lit) <= self._num_vars:
                raise ValueError(f"literal {lit} refers to an unallocated variable")
        if not lits:
            self._unsat = True
            return False
        assigns = self._assigns
        level = self._level
        simplified: List[int] = []
        for lit in lits:
            var = lit if lit > 0 else -lit
            value = assigns[var] if lit > 0 else -assigns[var]
            if value != 0 and level[var] == 0:
                if value > 0:
                    return True  # satisfied by a permanent assignment
                continue  # level-0 false literals are permanently vacuous
            simplified.append(lit)
        if not simplified:
            self._unsat = True
            return False
        if len(simplified) == 1:
            # a permanent consequence: assign at level 0, propagate on the
            # next solve() (the trail entry is queued behind _qhead)
            self._backtrack(0)
            lit = simplified[0]
            value = assigns[lit] if lit > 0 else -assigns[-lit]
            if value > 0:
                return True  # was already implied at level 0
            if value < 0:
                self._unsat = True
                return False
            index = len(self._clauses)
            self._clauses.append(simplified)
            self._assign(lit, index)
            return True
        # Unwind decision levels until at least two literals are non-false,
        # so the watch invariant (a unit/false clause is always detected)
        # holds without replaying the whole search.  Terminates: the level-0
        # simplification above guarantees every remaining false literal sits
        # at a positive level, and backtracking frees it.
        while True:
            free = 0
            for lit in simplified:
                if (assigns[lit] if lit > 0 else -assigns[-lit]) >= 0:
                    free += 1
                    if free == 2:
                        break
            if free >= 2:
                break
            top = 1
            for lit in simplified:
                var = lit if lit > 0 else -lit
                if assigns[var] != 0 and level[var] > top:
                    top = level[var]
            self._backtrack(top - 1)
        simplified.sort(key=self._watch_rank, reverse=True)
        index = len(self._clauses)
        self._clauses.append(simplified)
        self._watches[self._windex(simplified[0])].append(index)
        self._watches[self._windex(simplified[1])].append(index)
        return True

    @staticmethod
    def _windex(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        value = self._assigns[lit] if lit > 0 else -self._assigns[-lit]
        if value == 0:
            return None
        return value > 0

    def _assign(self, lit: int, reason: int) -> None:
        var = lit if lit > 0 else -lit
        positive = lit > 0
        self._assigns[var] = 1 if positive else -1
        self._phase[var] = positive
        self._reason[var] = reason
        self._level[var] = len(self._trail_lim)
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> int:
        """Exhaustive unit propagation over the watched literals.

        Returns the index of a conflicting clause, or ``-1`` if the current
        partial assignment is propagation-consistent.  Watch lists are
        compacted in place (no per-literal allocation).
        """
        assigns = self._assigns
        clauses = self._clauses
        watches = self._watches
        trail = self._trail
        phase = self._phase
        reason = self._reason
        level = self._level
        current_level = len(self._trail_lim)
        propagations = 0
        qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            neg = -lit
            widx = (neg << 1) if neg > 0 else ((-neg << 1) | 1)
            watch_list = watches[widx]
            conflict = -1
            i = 0
            j = 0
            total = len(watch_list)
            while i < total:
                ci = watch_list[i]
                i += 1
                clause = clauses[ci]
                # normalise so the falsified watcher sits at position 1
                if clause[0] == neg:
                    clause[0] = clause[1]
                    clause[1] = neg
                first = clause[0]
                fv = assigns[first] if first > 0 else -assigns[-first]
                if fv > 0:
                    watch_list[j] = ci
                    j += 1
                    continue
                swapped = False
                for k in range(2, len(clause)):
                    cand = clause[k]
                    cv = assigns[cand] if cand > 0 else -assigns[-cand]
                    if cv >= 0:  # not falsified: new watcher
                        clause[1] = cand
                        clause[k] = neg
                        watches[(cand << 1) if cand > 0 else ((-cand << 1) | 1)].append(ci)
                        swapped = True
                        break
                if swapped:
                    continue
                watch_list[j] = ci
                j += 1
                if fv < 0:
                    # every literal false: conflict; keep remaining watchers
                    while i < total:
                        watch_list[j] = watch_list[i]
                        j += 1
                        i += 1
                    conflict = ci
                    break
                # inlined _assign (the hottest call site in the solver)
                if first > 0:
                    assigns[first] = 1
                    phase[first] = True
                    reason[first] = ci
                    level[first] = current_level
                else:
                    var = -first
                    assigns[var] = -1
                    phase[var] = False
                    reason[var] = ci
                    level[var] = current_level
                trail.append(first)
                propagations += 1
            del watch_list[j:]
            if conflict >= 0:
                self._qhead = qhead
                self.num_propagations += propagations
                return conflict
        self._qhead = qhead
        self.num_propagations += propagations
        return -1

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity
        act = activity[var] + self._activity_inc
        activity[var] = act
        if act > 1e100:
            for index in range(1, self._num_vars + 1):
                activity[index] *= 1e-100
            self._activity_inc *= 1e-100
            self._rebuild_heap()
        elif self._assigns[var] == 0:
            self._act_entry[var] = act
            heappush(self._heap, (-act, var))

    def _rebuild_heap(self) -> None:
        activity = self._activity
        assigns = self._assigns
        act_entry = self._act_entry
        entries: List[Tuple[float, int]] = []
        for var in range(1, self._num_vars + 1):
            if assigns[var] == 0:
                act = activity[var]
                act_entry[var] = act
                entries.append((-act, var))
            else:
                act_entry[var] = -1.0
        heapify(entries)
        self._heap = entries

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis: learned clause and backjump level."""
        seen = self._seen  # persistent scratch: cleared via `touched` below
        touched: List[int] = []
        learned: List[int] = []
        counter = 0
        clause = list(self._clauses[conflict_index])
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()
        level = self._level
        resolve_lit = 0

        while True:
            for lit in clause:
                var = lit if lit > 0 else -lit
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                touched.append(var)
                self._bump(var)
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            while True:
                resolve_lit = self._trail[trail_index]
                trail_index -= 1
                if seen[resolve_lit if resolve_lit > 0 else -resolve_lit]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self._reason[resolve_lit if resolve_lit > 0 else -resolve_lit]
            assert reason_index >= 0, "decision literal reached before UIP"
            clause = [l for l in self._clauses[reason_index] if l != resolve_lit]

        # Local clause minimisation (MiniSat ccmin): a non-asserting literal
        # is redundant when its reason clause is subsumed by the rest of the
        # learned clause — every other reason literal is already marked seen
        # or sits at level 0.  Must run while ``seen`` is still set.
        if learned:
            reason = self._reason
            clauses = self._clauses
            minimized: List[int] = []
            for lit in learned:
                var = lit if lit > 0 else -lit
                reason_index = reason[var]
                if reason_index < 0:
                    minimized.append(lit)
                    continue
                for other in clauses[reason_index]:
                    other_var = other if other > 0 else -other
                    if other_var != var and not seen[other_var] and level[other_var] > 0:
                        minimized.append(lit)
                        break
            learned = minimized
        for var in touched:
            seen[var] = False
        learned.insert(0, -resolve_lit)
        if len(learned) == 1:
            return learned, 0
        # place a literal of the backjump level second: it is the companion
        # watcher of the asserting literal, keeping the watch invariant.
        best = 1
        for position in range(2, len(learned)):
            if level[abs(learned[position])] > level[abs(learned[best])]:
                best = position
        learned[1], learned[best] = learned[best], learned[1]
        return learned, level[abs(learned[1])]

    def _backtrack(self, target: int) -> None:
        if len(self._trail_lim) <= target:
            return
        limit = self._trail_lim[target]
        assigns = self._assigns
        activity = self._activity
        act_entry = self._act_entry
        phase_set = self._phase_set
        heap = self._heap
        for lit in self._trail[limit:]:
            var = lit if lit > 0 else -lit
            assigns[var] = 0
            # progress saving: the polarity recorded at assignment time
            # becomes this variable's preferred phase for future decisions
            phase_set[var] = True
            act = activity[var]
            if act_entry[var] != act:
                act_entry[var] = act
                heappush(heap, (-act, var))
        del self._trail[limit:]
        del self._trail_lim[target:]
        if self._qhead > len(self._trail):
            self._qhead = len(self._trail)
        if self._theory is not None and self._theory_head > len(self._trail):
            self._theory.shrink_to_trail(len(self._trail))
            self._theory_head = len(self._trail)

    # -- theory integration ----------------------------------------------------

    def _install_clause(self, literals: List[int]) -> int:
        """Add a theory lemma to the clause database mid-search.

        Unlike :meth:`add_clause` this never backtracks: the two watch slots
        are chosen as the best candidates under the *current* assignment
        (unassigned literals first, then highest assignment level), which
        keeps the watch invariant for conflict clauses (all literals false)
        and propagation reasons (exactly the implied literal unassigned).
        """
        lits: List[int] = []
        seen = set()
        for lit in literals:
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
        index = len(self._clauses)
        if len(lits) >= 2:
            lits.sort(key=self._watch_rank, reverse=True)
            self._watches[self._windex(lits[0])].append(index)
            self._watches[self._windex(lits[1])].append(index)
        self._clauses.append(lits)
        return index

    def _watch_rank(self, lit: int) -> int:
        var = lit if lit > 0 else -lit
        if self._assigns[var] == 0:
            return 1 << 60
        return self._level[var]

    def _theory_propagate(self) -> int:
        """Assert new trail literals into the theory; apply its propagations.

        Returns a conflicting clause index, or ``-1`` when the theory agrees
        with the current partial assignment.  Theory-implied literals are
        assigned here with freshly installed reason clauses, so conflict
        analysis can resolve across them like any boolean propagation.
        """
        theory = self._theory
        atom_vars = self._theory_vars
        trail = self._trail
        while self._theory_head < len(trail):
            position = self._theory_head
            lit = trail[position]
            self._theory_head += 1
            # Most trail literals are Tseitin/selector variables the theory
            # has never heard of; filter here to spare a call per literal.
            if (lit if lit > 0 else -lit) not in atom_vars:
                continue
            explanation = theory.assert_literal(lit, position)
            if explanation is not None:
                return self._install_clause([-l for l in explanation])
            if not theory.propagation_queue:
                continue
            for implied, reason in theory.drain_propagations():
                value = self._value(implied)
                if value is True:
                    continue
                clause = [implied] + [-r for r in reason if r != implied]
                index = self._install_clause(clause)
                if value is False:
                    return index
                self._assign(implied, index)
        return -1

    def _resolve_conflict(self, conflict_index: int) -> bool:
        """Learn from a conflicting clause; ``False`` latches permanent unsat.

        Theory lemmas can be falsified below the current decision level (the
        offending bounds may all predate the latest decisions), so the
        search first backtracks to the clause's highest literal level — at
        which point first-UIP analysis applies unchanged.
        """
        self.num_conflicts += 1
        level = self._level
        top = 0
        for lit in self._clauses[conflict_index]:
            lit_level = level[lit if lit > 0 else -lit]
            if lit_level > top:
                top = lit_level
        if top == 0:
            self._unsat = True
            return False
        if top < self._decision_level():
            self._backtrack(top)
        learned, backjump_level = self._analyze(conflict_index)
        self._backtrack(backjump_level)
        index = len(self._clauses)
        self._clauses.append(learned)
        if len(learned) >= 2:
            self._watches[self._windex(learned[0])].append(index)
            self._watches[self._windex(learned[1])].append(index)
        self._assign(learned[0], index)
        self._activity_inc *= 1.05
        return True

    # -- search --------------------------------------------------------------

    def _pick_branch_var(self) -> Optional[int]:
        assigns = self._assigns
        activity = self._activity
        act_entry = self._act_entry
        heap = self._heap
        while heap:
            negact, var = heappop(heap)
            act = -negact
            if act_entry[var] == act:
                act_entry[var] = -1.0  # the fresh entry is consumed
            if assigns[var] == 0 and act == activity[var]:
                return var
        return None

    def _model_satisfies_all(self) -> bool:
        for clause in self._clauses:
            if not any(self._value(lit) is True for lit in clause):
                return False
        return True

    def solve(self, assumptions: Iterable[int] = ()) -> Optional[Dict[int, bool]]:
        """Search for a satisfying assignment.

        Returns a complete assignment (variable -> bool) or ``None`` if the
        formula is unsatisfiable under the given assumptions.

        Each assumption is asserted at its own decision level (the MiniSat
        discipline) rather than at level 0.  Level-0 literals are dropped
        during conflict analysis as globally implied, so an assumption planted
        there would leak into learned clauses and poison later ``solve`` calls
        made under different assumptions — the incremental SMT backend relies
        on every learned clause being a consequence of the clause database
        alone.  By the same argument any conflict at level 0 refutes the
        clause database itself, so it latches the solver permanently unsat.
        """
        self._solve_base = (
            self.num_conflicts,
            self.num_decisions,
            self.num_propagations,
            self.num_phase_saving_hits,
        )
        if self._unsat:
            return None
        assumption_list = list(assumptions)
        for lit in assumption_list:
            if not 1 <= abs(lit) <= self._num_vars:
                raise ValueError(f"assumption {lit} refers to an unallocated variable")
        # Trail reuse across calls: retract only the decision levels that are
        # incompatible with this call's assumptions.  A leading level whose
        # decision literal is the next assumption (or whose assumption is
        # already true within the kept prefix) is a state this call's own
        # planting loop would reconstruct verbatim — consecutive queries
        # share their hypothesis frames, so keeping those levels saves
        # re-propagating an almost identical trail per check.  Free decisions
        # and mismatched assumptions always cut the prefix: a level survives
        # only when its decision is literally one of the new assumptions.
        # Clauses added between calls do not reset this: ``add_clause``
        # unwinds only until the new clause has two non-false literals (unit
        # clauses, which assign at level 0, are the exception).
        trail = self._trail
        lim = self._trail_lim
        level = self._level
        assigns = self._assigns
        keep = 0
        for lit in assumption_list:
            if keep < len(lim) and trail[lim[keep]] == lit:
                keep += 1
                continue
            var = lit if lit > 0 else -lit
            value = assigns[var]
            if value != 0 and (value > 0) == (lit > 0) and level[var] <= keep:
                continue  # already true inside the kept prefix
            break
        self._backtrack(keep)
        theory = self._theory

        while True:
            conflict = self._propagate()
            if conflict < 0 and theory is not None:
                conflict = self._theory_propagate()
                if conflict < 0 and self._qhead < len(self._trail):
                    continue  # theory-implied literals await boolean propagation
            if conflict >= 0:
                if not self._resolve_conflict(conflict):
                    return None
                continue
            if theory is not None:
                # Theory consistency of the *partial* assignment, once per
                # decision level: conflicts surface here as learned clauses
                # long before the propositional model is complete.
                explanation = theory.partial_check()
                if explanation is not None:
                    conflict = self._install_clause([-lit for lit in explanation])
                    if not self._resolve_conflict(conflict):
                        return None
                    continue
            # Re-establish any assumption lost to backjumping before making a
            # free decision; a falsified assumption means unsat-under-assumptions.
            pending_assumption = 0
            for lit in assumption_list:
                value = self._value(lit)
                if value is False:
                    return None
                if value is None:
                    pending_assumption = lit
                    break
            if pending_assumption:
                self._trail_lim.append(len(self._trail))
                self._assign(pending_assumption, -1)
                continue
            branch_var = self._pick_branch_var()
            if branch_var is None:
                if theory is not None:
                    # Complete theory check (integer branch-and-bound): the
                    # only place integrality is decided.
                    explanation = theory.final_check()
                    if explanation is not None:
                        conflict = self._install_clause([-lit for lit in explanation])
                        if not self._resolve_conflict(conflict):
                            return None
                        continue
                if self.verify_models:
                    assert self._model_satisfies_all(), "internal error: bogus SAT model"
                return {
                    lit if lit > 0 else -lit: lit > 0 for lit in self._trail
                }
            self.num_decisions += 1
            self._trail_lim.append(len(self._trail))
            if self._phase_set[branch_var]:
                preferred = self._phase[branch_var]
                self.num_phase_saving_hits += 1
            else:
                preferred = False
            self._assign(branch_var if preferred else -branch_var, -1)
