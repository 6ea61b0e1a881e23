"""Qualifier templates for liquid inference.

A *qualifier* is a quantifier-free predicate over a distinguished value
variable ``v`` and hole variables; liquid inference searches for solutions to
κ variables among conjunctions of qualifier instances.  The default set below
follows the classic Liquid Types qualifiers (comparisons of the value against
zero, against the other parameters in scope, and off-by-one variants), which
is exactly the vocabulary needed by the paper's benchmarks: loop counters,
vector lengths, and index bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.logic.expr import Expr, Var, add, sub, binop
from repro.logic.sorts import BOOL, INT, Sort
from repro.logic.subst import substitute
from repro.fixpoint.constraint import KVarDecl


@dataclass(frozen=True)
class Qualifier:
    """A template predicate over the value variable ``v`` and holes ``x0..xn``.

    ``hole_sorts`` gives the required sort for each hole; instantiation fills
    holes with κ parameters of matching sorts (all distinct from the value).
    """

    name: str
    expr: Expr
    hole_sorts: Tuple[Sort, ...] = ()
    value_sort: Sort = INT

    def instantiate(self, value: Expr, holes: Sequence[Expr]) -> Expr:
        mapping: Dict[str, Expr] = {"v": value}
        for index, hole in enumerate(holes):
            mapping[f"x{index}"] = hole
        return substitute(self.expr, mapping)


def _cmp(op: str, rhs: Expr) -> Expr:
    return binop(op, Var("v"), rhs)


def default_qualifiers() -> List[Qualifier]:
    """The default qualifier vocabulary (§4.2: "a small set of quantifier-free
    templates")."""
    from repro.logic.expr import IntConst

    zero = IntConst(0)
    one = IntConst(1)
    hole = Var("x0")
    qualifiers = [
        Qualifier("ge-zero", _cmp(">=", zero)),
        Qualifier("gt-zero", _cmp(">", zero)),
        Qualifier("le-zero", _cmp("<=", zero)),
        Qualifier("eq-zero", _cmp("=", zero)),
        Qualifier("eq-one", _cmp("=", one)),
        Qualifier("le-one", _cmp("<=", one)),
        Qualifier("ge-one", _cmp(">=", one)),
        Qualifier("eq-hole", _cmp("=", hole), (INT,)),
        Qualifier("le-hole", _cmp("<=", hole), (INT,)),
        Qualifier("lt-hole", _cmp("<", hole), (INT,)),
        Qualifier("ge-hole", _cmp(">=", hole), (INT,)),
        Qualifier("gt-hole", _cmp(">", hole), (INT,)),
        Qualifier("eq-hole-plus-one", _cmp("=", add(hole, 1)), (INT,)),
        Qualifier("eq-hole-minus-one", _cmp("=", sub(hole, 1)), (INT,)),
        Qualifier("le-hole-plus-one", _cmp("<=", add(hole, 1)), (INT,)),
        Qualifier("eq-sum", _cmp("=", add(Var("x0"), Var("x1"))), (INT, INT)),
        Qualifier("bool-true", Var("v", BOOL), (), BOOL),
        Qualifier(
            "bool-false",
            binop("=", Var("v", BOOL), Var("x0", BOOL)),
            (BOOL,),
            BOOL,
        ),
    ]
    # Boolean values flowing out of comparisons: the join of `true` under `p`
    # and `false` under `!p` is captured by qualifiers of the form
    # ``v <=> x0 <op> x1`` (and against zero).  These let Flux give precise
    # types to functions like `is_pos` that reify a comparison as a bool.
    bool_value = Var("v", BOOL)
    for op_name, op in (("gt", ">"), ("ge", ">="), ("lt", "<"), ("le", "<="), ("eq", "=")):
        qualifiers.append(
            Qualifier(
                f"iff-{op_name}-zero",
                binop("<=>", bool_value, binop(op, Var("x0"), zero)),
                (INT,),
                BOOL,
            )
        )
        qualifiers.append(
            Qualifier(
                f"iff-{op_name}-hole",
                binop("<=>", bool_value, binop(op, Var("x0"), Var("x1"))),
                (INT, INT),
                BOOL,
            )
        )
    return qualifiers


def instantiate_qualifiers(
    decl: KVarDecl, qualifiers: Sequence[Qualifier]
) -> List[Expr]:
    """All well-sorted instantiations of ``qualifiers`` for a κ declaration.

    The κ's first parameter plays the role of the value variable ``v``; the
    remaining parameters fill the holes.  Instantiated predicates are
    expressed over the κ's *formal* parameter names so they can later be
    substituted with actual arguments.
    """
    if not decl.params:
        return []
    value_name, value_sort = decl.params[0]
    others = decl.params[1:]
    value = Var(value_name, value_sort)
    instances: List[Expr] = []
    seen = set()
    for qualifier in qualifiers:
        if qualifier.value_sort != value_sort:
            continue
        for holes in _hole_assignments(qualifier.hole_sorts, others):
            instance = qualifier.instantiate(value, holes)
            if instance not in seen:
                seen.add(instance)
                instances.append(instance)
    return instances


def _hole_assignments(
    hole_sorts: Tuple[Sort, ...], params: Tuple[Tuple[str, Sort], ...]
) -> List[List[Expr]]:
    if not hole_sorts:
        return [[]]
    assignments: List[List[Expr]] = [[]]
    for sort in hole_sorts:
        candidates = [Var(name, psort) for name, psort in params if psort == sort]
        if not candidates:
            return []
        next_assignments = []
        for partial in assignments:
            for candidate in candidates:
                if any(candidate == chosen for chosen in partial):
                    continue
                next_assignments.append(partial + [candidate])
        assignments = next_assignments
    return assignments
