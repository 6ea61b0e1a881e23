"""Normalisation of atomic formulas into linear constraints.

A theory atom is either a propositional variable (a ``bool``-sorted
refinement variable) or a linear constraint over numeric variables::

    sum_i coeff_i * x_i  <op>  constant      with <op> in {<=, =, <}

Disequalities and the remaining comparison operators are normalised away:
``a > b`` becomes ``b - a <= -1`` for integer operands (``b - a < 0`` for
real-sorted ones), ``a != b`` is split into a disjunction before CNF
conversion.

Coefficients and constants are *plain Python ints* whenever every input is
integral — the common LIA case produced by refinement checking — and fall
back to :class:`fractions.Fraction` only when a real constant or an inexact
division enters the term.  ``int`` implements the ``numbers.Rational``
attributes (``numerator``/``denominator``), so the two representations mix
freely and compare/hash identically (``Fraction(1) == 1``); the simplex
layer keeps the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from repro.logic.expr import (
    App,
    BinOp,
    BoolConst,
    Expr,
    IntConst,
    Ite,
    RealConst,
    UnaryOp,
    Var,
)
from repro.logic.sorts import BOOL, INT, REAL, Sort

#: A rational scalar on the mixed int/Fraction fast path.
Rational = Union[int, Fraction]


class AtomError(Exception):
    """Raised when an expression cannot be normalised into a theory atom."""


@dataclass(frozen=True)
class LinTerm:
    """A linear term ``coeffs . vars + const`` with rational coefficients."""

    coeffs: Tuple[Tuple[str, Rational], ...]
    const: Rational

    @staticmethod
    def constant(value: Rational) -> "LinTerm":
        return LinTerm((), value)

    @staticmethod
    def variable(name: str) -> "LinTerm":
        return LinTerm(((name, 1),), 0)

    def scale(self, factor: Rational) -> "LinTerm":
        if factor == 0:
            return LinTerm((), 0)
        return LinTerm(
            tuple((name, coeff * factor) for name, coeff in self.coeffs),
            self.const * factor,
        )

    def add(self, other: "LinTerm") -> "LinTerm":
        acc: Dict[str, Rational] = {}
        for name, coeff in self.coeffs + other.coeffs:
            acc[name] = acc.get(name, 0) + coeff
        coeffs = tuple(sorted((n, c) for n, c in acc.items() if c != 0))
        return LinTerm(coeffs, self.const + other.const)

    def sub(self, other: "LinTerm") -> "LinTerm":
        return self.add(other.scale(-1))

    def is_constant(self) -> bool:
        return not self.coeffs

    def coeff_map(self) -> Dict[str, Rational]:
        return dict(self.coeffs)


@dataclass(frozen=True)
class LinearAtom:
    """A normalised linear constraint ``term <op> 0``.

    ``op`` is one of ``"<="``, ``"<"`` or ``"="``.  ``strict_is_int`` records
    whether all variables of a strict constraint are integer-sorted, which
    lets the LIA layer tighten ``t < 0`` into ``t <= -1``.
    """

    term: LinTerm
    op: str
    all_int: bool

    def __str__(self) -> str:
        parts = [f"{coeff}*{name}" for name, coeff in self.term.coeffs]
        parts.append(str(self.term.const))
        return f"{' + '.join(parts)} {self.op} 0"


_ATOM_MEMO_LIMIT = 100_000


def negate_atom(atom: LinearAtom) -> LinearAtom:
    """Negation of ``term <= 0`` / ``term < 0`` as a linear atom (memoised)."""
    cached = _NEGATED_ATOMS.get(atom)
    if cached is not None:
        return cached
    negated_term = atom.term.scale(-1)
    if atom.op == "<=":
        # not (t <= 0)  <=>  t > 0  <=>  -t < 0
        if atom.all_int:
            tightened = LinTerm(negated_term.coeffs, negated_term.const + 1)
            negated = LinearAtom(tightened, "<=", True)
        else:
            negated = LinearAtom(negated_term, "<", atom.all_int)
    elif atom.op == "<":
        # not (t < 0)  <=>  t >= 0  <=>  -t <= 0
        negated = LinearAtom(negated_term, "<=", atom.all_int)
    else:
        raise AtomError(f"cannot negate equality atom {atom} (should have been eliminated)")
    if len(_NEGATED_ATOMS) >= _ATOM_MEMO_LIMIT:
        _NEGATED_ATOMS.clear()
    _NEGATED_ATOMS[atom] = negated
    return negated


_NEGATED_ATOMS: Dict[LinearAtom, LinearAtom] = {}


def atom_constraint(atom: LinearAtom):
    """Memoised :class:`repro.smt.simplex.Constraint` view of an atom."""
    cached = _ATOM_CONSTRAINTS.get(atom)
    if cached is None:
        from repro.smt.simplex import Constraint

        cached = Constraint(atom.term.coeff_map(), atom.op, -atom.term.const)
        if len(_ATOM_CONSTRAINTS) >= _ATOM_MEMO_LIMIT:
            _ATOM_CONSTRAINTS.clear()
        _ATOM_CONSTRAINTS[atom] = cached
    return cached


_ATOM_CONSTRAINTS: Dict[LinearAtom, object] = {}


def linearize(expr: Expr, sorts: Dict[str, Sort]) -> LinTerm:
    """Convert a numeric expression into a linear term.

    ``sorts`` records the sort of every free variable (default ``int``).
    Non-linear multiplications raise :class:`AtomError`; the refinement
    language of the paper is linear, so this only triggers on malformed
    specifications (and produces a clear diagnostic).
    """
    if isinstance(expr, IntConst):
        return LinTerm((), expr.value)
    if isinstance(expr, RealConst):
        return LinTerm((), Fraction(expr.value))
    if isinstance(expr, Var):
        return LinTerm.variable(expr.name)
    if isinstance(expr, App):
        # Applications should have been Ackermann-expanded away before
        # linearisation; treat leftovers as opaque variables keyed by their
        # printed form so that syntactically identical applications alias.
        return LinTerm.variable(str(expr))
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return linearize(expr.operand, sorts).scale(-1)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return linearize(expr.lhs, sorts).add(linearize(expr.rhs, sorts))
        if expr.op == "-":
            return linearize(expr.lhs, sorts).sub(linearize(expr.rhs, sorts))
        if expr.op == "*":
            lhs = linearize(expr.lhs, sorts)
            rhs = linearize(expr.rhs, sorts)
            if lhs.is_constant():
                return rhs.scale(lhs.const)
            if rhs.is_constant():
                return lhs.scale(rhs.const)
            raise AtomError(f"non-linear multiplication: {expr}")
        if expr.op in ("/", "%"):
            lhs = linearize(expr.lhs, sorts)
            rhs = linearize(expr.rhs, sorts)
            if rhs.is_constant() and rhs.const != 0 and expr.op == "/":
                if lhs.is_constant():
                    return LinTerm((), int(lhs.const) // int(rhs.const))
                # Integer division by a constant is kept as an opaque variable;
                # sound for satisfiability only when the divisor divides
                # evenly, so we over-approximate via a fresh variable.
                return LinTerm.variable(f"<{expr}>")
            return LinTerm.variable(f"<{expr}>")
    if isinstance(expr, Ite):
        raise AtomError("if-then-else must be eliminated before linearisation")
    raise AtomError(f"cannot linearise {expr}")


def _vars_all_int(term: LinTerm, sorts: Dict[str, Sort]) -> bool:
    return all(sorts.get(name, INT) in (INT, BOOL) for name, _ in term.coeffs)


def normalize_comparison(op: str, lhs: Expr, rhs: Expr, sorts: Dict[str, Sort]) -> LinearAtom:
    """Normalise ``lhs <op> rhs`` into a single :class:`LinearAtom`.

    ``!=`` is not handled here (it is split into a disjunction by the
    preprocessor).
    """
    left = linearize(lhs, sorts)
    right = linearize(rhs, sorts)
    if op == "<=":
        term = left.sub(right)
    elif op == "<":
        term = left.sub(right)
        return _strict(term, sorts)
    elif op == ">=":
        term = right.sub(left)
    elif op == ">":
        term = right.sub(left)
        return _strict(term, sorts)
    elif op == "=":
        term = left.sub(right)
        return LinearAtom(term, "=", _vars_all_int(term, sorts))
    else:
        raise AtomError(f"unsupported comparison {op!r}")
    return LinearAtom(term, "<=", _vars_all_int(term, sorts))


def _strict(term: LinTerm, sorts: Dict[str, Sort]) -> LinearAtom:
    all_int = _vars_all_int(term, sorts)
    integral = all(coeff.denominator == 1 for _, coeff in term.coeffs)
    if all_int and integral and term.const.denominator == 1:
        # t < 0 over integers is t <= -1
        tightened = LinTerm(term.coeffs, term.const + 1)
        return LinearAtom(tightened, "<=", True)
    return LinearAtom(term, "<", all_int)
