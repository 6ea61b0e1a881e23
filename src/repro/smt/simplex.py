"""Exact simplex for linear real arithmetic feasibility.

This implements the general simplex of Dutertre & de Moura ("A fast
linear-arithmetic solver for DPLL(T)", CAV 2006) over exact rationals, with
symbolic infinitesimals (``a + b*delta``) so that strict inequalities are
handled precisely.

Numbers are plain Python ints wherever the inputs are integral, falling back
to :class:`fractions.Fraction` only when a division does not come out even
(see :func:`exact_div`) or a rational constant enters the tableau.  The
constraints produced by refinement checking have almost exclusively ±1
coefficients, so the hot path is pure machine-int arithmetic — an order of
magnitude cheaper than ``Fraction``'s normalising operators.

Internally the tableau is *flattened*: every variable gets a dense integer
id, and values/bounds live in parallel arrays indexed by id (the value array
is split into real/eps component arrays, so the hot update loops never
allocate a :class:`DeltaRational`).  Fixed-width containers (``array('q')``,
numpy) are deliberately **not** used for the coefficients: exactness
requires arbitrary-precision ints with Fraction fallback, which only plain
Python containers can hold without overflow.  Rows are sparse ``{col_id: coeff}``
dicts holding only nonzero coefficients, and a column index (var id → basic
rows mentioning it) makes bound updates O(column occupancy) instead of
O(rows).  Names appear only at the API boundary.

The entry point is :func:`check_constraints`: given a conjunction of linear
constraints it either returns a rational model or an *explanation* — a subset
of the input constraint indices that is already infeasible — which the lazy
SMT loop turns into a small blocking clause.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

Rational = Union[int, Fraction]


def exact_div(a: Rational, b: Rational) -> Rational:
    """Exact rational division that stays on the int fast path when it can.

    ``int / int`` would produce a float; instead divide with ``divmod`` and
    only build a :class:`Fraction` when the division is inexact.  Fractions
    that come out integral are normalised back to ``int`` so one inexact step
    does not poison every later operation.
    """
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if remainder == 0:
            return quotient
        return Fraction(a, b)
    result = Fraction(a) / b
    if result.denominator == 1:
        return result.numerator
    return result


class DeltaRational:
    """A rational number plus an infinitesimal component: ``real + eps * delta``."""

    __slots__ = ("real", "eps")

    def __init__(self, real: Rational, eps: Rational = 0) -> None:
        self.real = real
        self.eps = eps

    def __repr__(self) -> str:
        return f"DeltaRational({self.real!r}, {self.eps!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaRational):
            return NotImplemented
        return self.real == other.real and self.eps == other.eps

    def __hash__(self) -> int:
        return hash((self.real, self.eps))

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real + other.real, self.eps + other.eps)

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real - other.real, self.eps - other.eps)

    def scale(self, factor: Rational) -> "DeltaRational":
        return DeltaRational(self.real * factor, self.eps * factor)

    def __lt__(self, other: "DeltaRational") -> bool:
        return self.real < other.real or (self.real == other.real and self.eps < other.eps)

    def __le__(self, other: "DeltaRational") -> bool:
        return self.real < other.real or (self.real == other.real and self.eps <= other.eps)

    def __gt__(self, other: "DeltaRational") -> bool:
        return self.real > other.real or (self.real == other.real and self.eps > other.eps)

    def __ge__(self, other: "DeltaRational") -> bool:
        return self.real > other.real or (self.real == other.real and self.eps >= other.eps)


ZERO = DeltaRational(0)


@dataclass
class Constraint:
    """A linear constraint ``coeffs . x  <op>  bound`` with op in {<=, <, =, >=, >}."""

    coeffs: Dict[str, Rational]
    op: str
    bound: Rational

    def __post_init__(self) -> None:
        if self.op not in ("<=", "<", "=", ">=", ">"):
            raise ValueError(f"bad constraint operator {self.op!r}")


@dataclass
class SimplexResult:
    satisfiable: bool
    model: Optional[Dict[str, Rational]] = None
    conflict: Optional[Set[int]] = None  # indices into the input constraints


class _Bound:
    __slots__ = ("value", "origin")

    def __init__(self, value: DeltaRational, origin: int) -> None:
        self.value = value
        self.origin = origin


class Simplex:
    """General simplex tableau over exact rationals (flattened, id-indexed)."""

    def __init__(self) -> None:
        # name <-> dense id translation (names only at the API boundary)
        self._id: Dict[str, int] = {}
        self._name: List[str] = []
        self._is_slack: List[bool] = []
        # variable values, split into parallel real/eps component arrays so
        # the update loops work on plain rationals
        self._vreal: List[Rational] = []
        self._veps: List[Rational] = []
        self._lower: List[Optional[_Bound]] = []
        self._upper: List[Optional[_Bound]] = []
        # tableau: basic id -> row; a var is basic iff it keys ``_rows``
        self._rows: Dict[int, Dict[int, Rational]] = {}
        # column index: var id -> basic ids whose row has a nonzero there
        self._cols: List[Set[int]] = []
        # basic ids whose value/bounds changed since last verified in-bounds
        # (the base class ignores it; BacktrackableSimplex feeds feasible())
        self._dirty: Set[int] = set()
        self._slack_count = 0
        # Lifetime pivot count.  This is the tableau's one observability
        # feed: the theory solver snapshots it in ``begin_check`` and reads
        # the per-check delta back via :meth:`pivots_since`, which ends up in
        # the ``smt.simplex_pivots`` counter and the ``smt.pivots_per_check``
        # histogram of the metrics registry.
        self.pivots = 0

    # -- construction --------------------------------------------------------

    def _ensure_var(self, name: str) -> int:
        vid = self._id.get(name)
        if vid is None:
            vid = self._new_id(name, is_slack=False)
        return vid

    def _new_id(self, name: str, is_slack: bool) -> int:
        vid = len(self._name)
        self._id[name] = vid
        self._name.append(name)
        self._is_slack.append(is_slack)
        self._vreal.append(0)
        self._veps.append(0)
        self._lower.append(None)
        self._upper.append(None)
        self._cols.append(set())
        return vid

    def add_constraint(self, constraint: Constraint, origin: int) -> Optional[Set[int]]:
        """Add one constraint.  Returns a conflict explanation if it is
        immediately inconsistent with existing bounds, otherwise ``None``."""
        coeffs = {name: coeff for name, coeff in constraint.coeffs.items() if coeff != 0}
        if not coeffs:
            # ground constraint: 0 <op> bound
            if _ground_holds(constraint.op, 0, constraint.bound):
                return None
            return {origin}

        if len(coeffs) == 1:
            # simple bound on a single variable: coeff * x <op> bound
            (name, coeff), = coeffs.items()
            vid = self._ensure_var(name)
            return self._assert_scaled_bound(vid, coeff, constraint, origin)

        slack = self._install_row(coeffs.items())
        return self._assert_scaled_bound(slack, 1, constraint, origin)

    def _install_row(
        self, terms: Iterable[Tuple[str, Rational]], slack: Optional[int] = None
    ) -> int:
        """Define a slack variable as ``sum terms`` (a new row) and set its value.

        A fresh slack is created unless ``slack`` names an existing one whose
        row is being rebuilt.  Basic variables among the terms are replaced
        by their rows, so the row is over the current nonbasic variables.
        """
        ids = [(self._ensure_var(name), coeff) for name, coeff in terms]
        row: Dict[int, Rational] = {}
        rows = self._rows
        for vid, coeff in ids:
            definition = rows.get(vid)
            if definition is not None:
                # substitute the definition of a basic variable
                for inner, inner_coeff in definition.items():
                    row[inner] = row.get(inner, 0) + coeff * inner_coeff
            else:
                row[vid] = row.get(vid, 0) + coeff
        row = {j: c for j, c in row.items() if c != 0}
        if slack is None:
            slack = self._new_id(self._fresh_slack(), is_slack=True)
        rows[slack] = row
        cols = self._cols
        for j in row:
            cols[j].add(slack)
        real: Rational = 0
        eps: Rational = 0
        vreal = self._vreal
        veps = self._veps
        for j, c in row.items():
            real += vreal[j] * c
            eps += veps[j] * c
        vreal[slack] = real
        veps[slack] = eps
        return slack

    def _fresh_slack(self) -> str:
        self._slack_count += 1
        return f"__slack{self._slack_count}"

    def _assert_scaled_bound(
        self, vid: int, coeff: Rational, constraint: Constraint, origin: int
    ) -> Optional[Set[int]]:
        """Assert ``coeff * var <op> bound`` as bounds on the variable."""
        op = constraint.op
        if coeff < 0:
            op = _flip(op)
        limit = exact_div(constraint.bound, coeff)
        conflicts: Set[int] = set()
        if op in ("<=", "<", "="):
            value = DeltaRational(limit, -1 if op == "<" else 0)
            conflict = self._assert_upper(vid, value, origin)
            if conflict:
                conflicts |= conflict
        if op in (">=", ">", "="):
            value = DeltaRational(limit, 1 if op == ">" else 0)
            conflict = self._assert_lower(vid, value, origin)
            if conflict:
                conflicts |= conflict
        return conflicts or None

    def _assert_upper(self, vid: int, value: DeltaRational, origin: int) -> Optional[Set[int]]:
        current = self._upper[vid]
        if current is not None and current.value <= value:
            return None
        lower = self._lower[vid]
        if lower is not None and value < lower.value:
            return {origin, lower.origin}
        self._record_bound_change(vid, True, current)
        self._upper[vid] = _Bound(value, origin)
        if vid not in self._rows:
            vr = self._vreal[vid]
            ve = self._veps[vid]
            if vr > value.real or (vr == value.real and ve > value.eps):
                self._update_nonbasic(vid, value.real, value.eps)
        else:
            self._bound_tightened_on_basic(vid)
        return None

    def _assert_lower(self, vid: int, value: DeltaRational, origin: int) -> Optional[Set[int]]:
        current = self._lower[vid]
        if current is not None and current.value >= value:
            return None
        upper = self._upper[vid]
        if upper is not None and value > upper.value:
            return {origin, upper.origin}
        self._record_bound_change(vid, False, current)
        self._lower[vid] = _Bound(value, origin)
        if vid not in self._rows:
            vr = self._vreal[vid]
            ve = self._veps[vid]
            if vr < value.real or (vr == value.real and ve < value.eps):
                self._update_nonbasic(vid, value.real, value.eps)
        else:
            self._bound_tightened_on_basic(vid)
        return None

    def _record_bound_change(
        self, vid: int, is_upper: bool, previous: Optional[_Bound]
    ) -> None:
        """Hook for subclasses that trail bound changes (no-op here)."""

    def _bound_tightened_on_basic(self, vid: int) -> None:
        """Hook: a basic variable's bound tightened (no-op here)."""

    # -- value maintenance ---------------------------------------------------

    def _update_nonbasic(self, vid: int, new_real: Rational, new_eps: Rational) -> None:
        """Move a nonbasic variable to a new value; fix up dependent basics.

        O(column occupancy) thanks to the column index — only the rows that
        actually mention ``vid`` are touched.
        """
        vreal = self._vreal
        veps = self._veps
        delta_real = new_real - vreal[vid]
        delta_eps = new_eps - veps[vid]
        vreal[vid] = new_real
        veps[vid] = new_eps
        rows = self._rows
        dirty = self._dirty
        for bi in self._cols[vid]:
            coeff = rows[bi][vid]
            vreal[bi] = vreal[bi] + delta_real * coeff
            veps[bi] = veps[bi] + delta_eps * coeff
            dirty.add(bi)

    # -- pivoting ------------------------------------------------------------

    def _pivot(self, bi: int, nj: int) -> None:
        """Swap basic ``bi`` out of the basis and nonbasic ``nj`` into it."""
        rows = self._rows
        cols = self._cols
        row = rows.pop(bi)
        for j in row:
            cols[j].discard(bi)
        coeff = row[nj]
        # nj = (bi - sum_{j != nj} a_j x_j) / coeff
        new_row: Dict[int, Rational] = {bi: exact_div(1, coeff)}
        for j, a in row.items():
            if j != nj:
                new_row[j] = exact_div(-a, coeff)
        # substitute into every remaining row that mentions nj
        touched = cols[nj]
        cols[nj] = set()  # nj becomes basic: no row mentions it afterwards
        for other in touched:
            other_row = rows[other]
            a = other_row.pop(nj, 0)
            if not a:
                continue
            for j, b in new_row.items():
                updated = other_row.get(j, 0) + a * b
                if updated == 0:
                    if j in other_row:
                        del other_row[j]
                        cols[j].discard(other)
                else:
                    if j not in other_row:
                        cols[j].add(other)
                    other_row[j] = updated
        installed = {j: c for j, c in new_row.items() if c != 0}
        rows[nj] = installed
        for j in installed:
            cols[j].add(nj)
        self.pivots += 1

    def pivots_since(self, baseline: int) -> int:
        """Pivots performed since ``baseline`` (a stashed ``self.pivots``).

        Backtracking restores bounds and values but never un-pivots, so the
        counter is monotone and the delta is always non-negative.
        """
        return self.pivots - baseline

    def check(self) -> SimplexResult:
        """Run the simplex check procedure (Bland's rule, hence terminating)."""
        while True:
            violated = self._find_violated_basic()
            if violated is None:
                return SimplexResult(True, model=self._extract_model())
            basic, need_increase = violated
            pivot_var = self._find_pivot(self._rows[basic], need_increase)
            if pivot_var is None:
                return SimplexResult(False, conflict=self._explain(basic, need_increase))
            target = (
                self._lower[basic].value if need_increase else self._upper[basic].value
            )
            self._pivot_and_update(basic, pivot_var, target)

    def _find_violated_basic(self) -> Optional[Tuple[int, bool]]:
        name = self._name
        vreal = self._vreal
        veps = self._veps
        for basic in sorted(self._rows, key=name.__getitem__):
            vr = vreal[basic]
            ve = veps[basic]
            lower = self._lower[basic]
            if lower is not None:
                bv = lower.value
                if vr < bv.real or (vr == bv.real and ve < bv.eps):
                    return basic, True
            upper = self._upper[basic]
            if upper is not None:
                bv = upper.value
                if vr > bv.real or (vr == bv.real and ve > bv.eps):
                    return basic, False
        return None

    def _find_pivot(self, row: Dict[int, Rational], need_increase: bool) -> Optional[int]:
        # Bland's rule over the *names* (not the ids): byte-compatible with
        # the historical string-keyed tableau, so pivot sequences — and hence
        # certified conflict cores — are unchanged by the flattening.
        for j in sorted(row, key=self._name.__getitem__):
            coeff = row[j]
            if need_increase:
                can_help = (coeff > 0 and self._can_increase(j)) or (
                    coeff < 0 and self._can_decrease(j)
                )
            else:
                can_help = (coeff > 0 and self._can_decrease(j)) or (
                    coeff < 0 and self._can_increase(j)
                )
            if can_help:
                return j
        return None

    def _can_increase(self, vid: int) -> bool:
        upper = self._upper[vid]
        if upper is None:
            return True
        bv = upper.value
        vr = self._vreal[vid]
        return vr < bv.real or (vr == bv.real and self._veps[vid] < bv.eps)

    def _can_decrease(self, vid: int) -> bool:
        lower = self._lower[vid]
        if lower is None:
            return True
        bv = lower.value
        vr = self._vreal[vid]
        return vr > bv.real or (vr == bv.real and self._veps[vid] > bv.eps)

    def _pivot_and_update(self, bi: int, nj: int, target: DeltaRational) -> None:
        vreal = self._vreal
        veps = self._veps
        coeff = self._rows[bi][nj]
        delta_real = exact_div(target.real - vreal[bi], coeff)
        delta_eps = exact_div(target.eps - veps[bi], coeff)
        vreal[bi] = target.real
        veps[bi] = target.eps
        vreal[nj] = vreal[nj] + delta_real
        veps[nj] = veps[nj] + delta_eps
        rows = self._rows
        dirty = self._dirty
        for other in self._cols[nj]:
            if other == bi:
                continue
            a = rows[other][nj]
            vreal[other] = vreal[other] + delta_real * a
            veps[other] = veps[other] + delta_eps * a
            dirty.add(other)
        self._pivot(bi, nj)
        # the entering variable's shifted value may violate its own bounds
        dirty.add(nj)
        dirty.discard(bi)

    def _explain(self, basic: int, need_increase: bool) -> Set[int]:
        """Conflict explanation: the bound of the violated basic variable plus
        the bounds that prevent every nonbasic variable in its row from
        moving in the helpful direction."""
        explanation: Set[int] = set()
        if need_increase:
            explanation.add(self._lower[basic].origin)
        else:
            explanation.add(self._upper[basic].origin)
        for j, coeff in self._rows[basic].items():
            helps_by_increasing = (coeff > 0) == need_increase
            if helps_by_increasing:
                bound = self._upper[j]
            else:
                bound = self._lower[j]
            if bound is not None:
                explanation.add(bound.origin)
        # Note: every element is a caller-supplied origin tag — constraint
        # indices (>= 0) offline, signed SAT literals online.  Nothing here
        # may be filtered out: -1 is variable 1's negative literal, not a
        # sentinel, and dropping it would certify an over-strong core.
        return explanation

    def _extract_model(self) -> Dict[str, Rational]:
        """Concretise delta-rationals into plain rationals.

        Any positive rational value small enough works for delta; we compute
        one that keeps all strict inequalities strict.
        """
        delta = self._concrete_delta()
        model = {}
        is_slack = self._is_slack
        vreal = self._vreal
        veps = self._veps
        for vid, name in enumerate(self._name):
            if is_slack[vid]:
                continue
            model[name] = vreal[vid] + veps[vid] * delta
        return model

    def _concrete_delta(self) -> Rational:
        """A concrete positive value for the infinitesimal.

        Scans the bound arrays: only bounded variables constrain how large
        delta may be.
        """
        delta: Rational = 1
        vreal = self._vreal
        veps = self._veps
        for vid, bound in enumerate(self._lower):
            if bound is None:
                continue
            gap_real = vreal[vid] - bound.value.real
            gap_eps = veps[vid] - bound.value.eps
            if gap_eps < 0 and gap_real > 0:
                delta = min(delta, exact_div(gap_real, -gap_eps))
        for vid, bound in enumerate(self._upper):
            if bound is None:
                continue
            gap_real = bound.value.real - vreal[vid]
            gap_eps = bound.value.eps - veps[vid]
            if gap_eps < 0 and gap_real > 0:
                delta = min(delta, exact_div(gap_real, -gap_eps))
        return exact_div(delta, 2) if delta > 0 else Fraction(1, 2)


def _flip(op: str) -> str:
    return {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}[op]


def _ground_holds(op: str, value: Rational, bound: Rational) -> bool:
    if op == "<=":
        return value <= bound
    if op == "<":
        return value < bound
    if op == ">=":
        return value >= bound
    if op == ">":
        return value > bound
    return value == bound


def check_constraints(constraints: Sequence[Constraint]) -> SimplexResult:
    """Check feasibility of a conjunction of linear constraints over the rationals."""
    simplex = Simplex()
    for index, constraint in enumerate(constraints):
        conflict = simplex.add_constraint(constraint, index)
        if conflict:
            return SimplexResult(False, conflict=conflict)
    return simplex.check()


#: Origin tag for bounds asserted internally (branch-and-bound cuts).  Real
#: origins are SAT literals, which are never 0; an explanation containing
#: :data:`INTERNAL_ORIGIN` depends on a branching cut and cannot be certified
#: as a core over the asserted atoms alone.
INTERNAL_ORIGIN = 0


class BacktrackableSimplex(Simplex):
    """A :class:`Simplex` whose bound assertions can be retracted.

    The Dutertre–de Moura split between *definitions* and *assertions* makes
    this cheap: slack-variable definitions are shared by every check, while
    asserting an atom only tightens a bound on one variable.  Each
    tightening pushes an undo record — ``(var, which side, previous bound)``
    — onto a trail; :meth:`undo_to` pops back to a :meth:`mark`, so
    retracting an atom is O(bounds changed), never a tableau rebuild.
    Pivots need no undo: they preserve the row system's solution set, and
    variable values stay row-consistent across retraction because bounds
    only ever *loosen* on the way back.

    A slack's row is kept only while an atom over it is in force:
    :meth:`retire_rows` drops the rows of unbounded basic slacks outside
    the current check, so pivots stop rewriting them, and
    :meth:`assert_bound` rebuilds a retired row from its definition before
    bounding it.  This changes no pivot: a basic variable's row over the
    current nonbasic variables is unique, so the rebuilt row and value are
    the ones the tableau would have maintained; and an unbounded basic
    variable appears in no other row and never violates a bound, so Bland's
    rule never selects it to leave or to enter the basis.
    """

    def __init__(self) -> None:
        super().__init__()
        # (var id, is_upper, previous bound or None) — LIFO undo records
        self._trail: List[Tuple[int, bool, Optional[_Bound]]] = []
        # canonical coefficient tuple -> slack id defining that term, and back
        self._term_slacks: Dict[Tuple[Tuple[str, Rational], ...], int] = {}
        self._definition: Dict[int, Tuple[Tuple[str, Rational], ...]] = {}
        # slack ids whose row :meth:`retire_rows` dropped
        self._retired: Set[int] = set()
        #: (var name, is_upper) bound tightenings since the caller last
        #: drained this list; the theory layer scans them for implied atoms.
        self.tightened: List[Tuple[str, bool]] = []

    # -- trail ---------------------------------------------------------------

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        trail = self._trail
        lower = self._lower
        upper = self._upper
        while len(trail) > mark:
            vid, is_upper, previous = trail.pop()
            if is_upper:
                upper[vid] = previous
            else:
                lower[vid] = previous

    # -- definitions ---------------------------------------------------------

    def term_var(self, coeffs: Dict[str, Rational]) -> str:
        """The variable standing for ``sum coeffs . x`` (memoised).

        A unit single-variable term is the variable itself; anything else
        gets a slack variable defined by a row.  Definitions are not
        assertions, so backtracking never retracts them.
        """
        if len(coeffs) == 1:
            (name, coeff), = coeffs.items()
            if coeff == 1:
                self._ensure_var(name)
                return name
        key = tuple(sorted(coeffs.items()))
        slack = self._term_slacks.get(key)
        if slack is None:
            slack = self._install_row(coeffs.items())
            self._term_slacks[key] = slack
            self._definition[slack] = key
        return self._name[slack]

    def retire_rows(self, in_force: Set[str]) -> None:
        """Drop the rows of unbounded basic slacks not named in ``in_force``.

        The caller names every tableau variable its atoms in force can
        bound; rows outside that set only cost pivot work until
        :meth:`assert_bound` rebuilds them.  Original variables keep their
        rows, because models read their values.
        """
        rows = self._rows
        cols = self._cols
        name = self._name
        lower = self._lower
        upper = self._upper
        stale = [
            vid
            for vid in rows
            if vid in self._definition
            and name[vid] not in in_force
            and lower[vid] is None
            and upper[vid] is None
        ]
        for vid in stale:
            for j in rows.pop(vid):
                cols[j].discard(vid)
            self._dirty.discard(vid)
        self._retired.update(stale)

    # -- bound assertion (retractable) ---------------------------------------
    # The comparison/conflict logic lives in the base class; these hooks add
    # the trail record, the propagation event and the dirty mark.

    def _record_bound_change(
        self, vid: int, is_upper: bool, previous: Optional[_Bound]
    ) -> None:
        self._trail.append((vid, is_upper, previous))
        self.tightened.append((self._name[vid], is_upper))

    def _bound_tightened_on_basic(self, vid: int) -> None:
        self._dirty.add(vid)

    def assert_bound(
        self, name: str, is_upper: bool, value: DeltaRational, origin: int
    ) -> Optional[Set[int]]:
        """Tighten one bound; returns a conflict explanation or ``None``."""
        vid = self._ensure_var(name)
        if vid in self._retired:
            self._retired.discard(vid)
            self._install_row(self._definition[vid], vid)
        if is_upper:
            return self._assert_upper(vid, value, origin)
        return self._assert_lower(vid, value, origin)

    def upper_bound(self, name: str) -> Optional[_Bound]:
        vid = self._id.get(name)
        return self._upper[vid] if vid is not None else None

    def lower_bound(self, name: str) -> Optional[_Bound]:
        vid = self._id.get(name)
        return self._lower[vid] if vid is not None else None

    # -- checking ------------------------------------------------------------

    def feasible(self) -> Optional[Set[int]]:
        """Incremental rational feasibility from the current state.

        Only dirty basics are examined: a basic variable can newly violate a
        bound only when that bound tightened or its value moved, and both
        events mark it dirty.  Within the dirty set the smallest variable is
        selected first, preserving Bland's rule (and hence termination) of
        the full scan.  Returns ``None`` when feasible or a conflict
        explanation — bound origins — when not.
        """
        dirty = self._dirty
        vreal = self._vreal
        veps = self._veps
        rows = self._rows
        name = self._name
        lower_bounds = self._lower
        upper_bounds = self._upper
        while dirty:
            violated: Optional[Tuple[int, bool]] = None
            for vid in sorted(dirty, key=name.__getitem__):
                if vid not in rows:
                    dirty.discard(vid)
                    continue
                vr = vreal[vid]
                ve = veps[vid]
                lower = lower_bounds[vid]
                if lower is not None:
                    bv = lower.value
                    if vr < bv.real or (vr == bv.real and ve < bv.eps):
                        violated = (vid, True)
                        break
                upper = upper_bounds[vid]
                if upper is not None:
                    bv = upper.value
                    if vr > bv.real or (vr == bv.real and ve > bv.eps):
                        violated = (vid, False)
                        break
                dirty.discard(vid)
            if violated is None:
                return None
            basic, need_increase = violated
            pivot_var = self._find_pivot(rows[basic], need_increase)
            if pivot_var is None:
                return self._explain(basic, need_increase)
            target = (
                lower_bounds[basic].value if need_increase else upper_bounds[basic].value
            )
            self._pivot_and_update(basic, pivot_var, target)
        return None

    def snap_unbounded_ints_to_zero(self, names) -> None:
        """Reset unconstrained nonbasic variables sitting at fractional
        values to zero before integer rounding.

        A nonbasic variable with no bounds on either side can sit at a stale
        fractional value left over from an earlier check; integer
        branch-and-bound would then waste nodes branching on it.  Snapping
        it to zero is sound — it is unconstrained — and keeps dependent
        basics row-consistent through the ordinary update path.  Integral
        values are left alone so satisfying models are stable across checks.
        """
        vid_of = self._id
        lower = self._lower
        upper = self._upper
        rows = self._rows
        vreal = self._vreal
        veps = self._veps
        for name in names:
            vid = vid_of.get(name)
            if vid is None or vid in rows:
                continue
            if lower[vid] is not None or upper[vid] is not None:
                continue
            if veps[vid] != 0 or vreal[vid].denominator != 1:
                self._update_nonbasic(vid, 0, 0)

    def check_integer(
        self,
        int_vars: Set[str],
        max_nodes: int = 2000,
        model_names=None,
    ) -> Tuple[str, Optional[Set[int]], Optional[Dict[str, Rational]], int]:
        """Branch-and-bound for integer feasibility on the live tableau.

        Returns ``(status, explanation, model, nodes)`` with status ``"sat"``
        (model over ``model_names`` populated, integer variables integral),
        ``"unsat"`` (explanation populated when certifiable over the
        asserted-atom origins alone, ``None`` when every refutation leans on
        a branching cut), or ``"unknown"`` (node budget exhausted).  Branch
        bounds are asserted through the ordinary trail with
        :data:`INTERNAL_ORIGIN` and fully retracted before returning, so the
        caller's bound state is untouched.
        """
        if sys.getrecursionlimit() < 100000:
            sys.setrecursionlimit(100000)
        nodes = 0
        root_mark = self.mark()
        vid_of = self._id
        ordered_int_vars = [
            (name, vid_of[name]) for name in sorted(int_vars) if name in vid_of
        ]
        vreal = self._vreal
        veps = self._veps

        def search() -> Tuple[str, Optional[Set[int]], Optional[Dict[str, Rational]]]:
            nonlocal nodes
            if nodes >= max_nodes:
                return "unknown", None, None
            nodes += 1
            conflict = self.feasible()
            if conflict is not None:
                if INTERNAL_ORIGIN not in conflict:
                    # rationally infeasible over asserted atoms alone: this
                    # core refutes the whole query, branching or not
                    return "unsat", conflict, None
                return "unsat", None, None
            delta = self._concrete_delta()
            fractional: Optional[Tuple[str, Rational]] = None
            for name, vid in ordered_int_vars:
                concrete = vreal[vid] + veps[vid] * delta
                if concrete.denominator != 1:
                    fractional = (name, concrete)
                    break
            if fractional is None:
                if model_names is not None:
                    names = model_names
                else:
                    is_slack = self._is_slack
                    names = [n for i, n in enumerate(self._name) if not is_slack[i]]
                model = {}
                for name in names:
                    vid = vid_of.get(name)
                    if vid is not None:
                        model[name] = vreal[vid] + veps[vid] * delta
                return "sat", None, round_model_integers(model, int_vars)
            name, value = fractional
            for is_upper, bound in (
                (True, DeltaRational(math.floor(value))),
                (False, DeltaRational(math.ceil(value))),
            ):
                branch_mark = self.mark()
                conflict = self.assert_bound(name, is_upper, bound, INTERNAL_ORIGIN)
                if conflict is None:
                    status, explanation, found = search()
                    if status == "sat" or status == "unknown":
                        self.undo_to(branch_mark)
                        return status, None, found
                    if explanation is not None and INTERNAL_ORIGIN not in explanation:
                        self.undo_to(branch_mark)
                        return "unsat", explanation, None
                elif INTERNAL_ORIGIN not in conflict:
                    self.undo_to(branch_mark)
                    return "unsat", conflict, None
                self.undo_to(branch_mark)
            return "unsat", None, None

        try:
            status, explanation, model = search()
        finally:
            self.undo_to(root_mark)
        return status, explanation, model, nodes


def round_model_integers(
    model: Dict[str, Rational], int_vars: Set[str]
) -> Dict[str, Rational]:
    """Normalise integer-sorted values to plain ``int`` (shared with lia)."""
    return {
        name: int(value) if name in int_vars else value
        for name, value in model.items()
    }
