"""The sequence model of vectors used by the baseline.

Vectors are modelled as uninterpreted sequence values: ``len(v)`` gives the
length and ``lookup(v, i)`` the element at index ``i``.  Mutating operations
produce a *new* sequence symbol related to the old one by axioms; crucially
the frame axioms ("all other elements are unchanged") are universally
quantified, which is exactly the specification style Fig. 11 shows for
Prusti's ``store`` and the source of the verification-time gap measured in
the evaluation.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.logic.expr import App, Expr, Forall, Var, and_, eq, ge, implies, lt, ne
from repro.logic.sorts import INT

_COUNTER = itertools.count(1)


def fresh_symbol(hint: str, sort=INT) -> Var:
    return Var(f"{hint}#{next(_COUNTER)}", sort)


def seq_len(seq: Expr) -> Expr:
    return App("len", (seq,), INT)


def seq_lookup(seq: Expr, index: Expr) -> Expr:
    return App("lookup", (seq, index), INT)


def axioms_new(seq: Expr) -> List[Expr]:
    return [eq(seq_len(seq), 0)]


def axioms_push(old: Expr, new: Expr, value: Expr) -> List[Expr]:
    j = Var("jq", INT)
    return [
        eq(seq_len(new), _add(seq_len(old), 1)),
        eq(seq_lookup(new, seq_len(old)), value),
        Forall(
            ((j.name, INT),),
            implies(and_(ge(j, 0), lt(j, seq_len(old))), eq(seq_lookup(new, j), seq_lookup(old, j))),
        ),
    ]


def axioms_store(old: Expr, new: Expr, index: Expr, value: Expr) -> List[Expr]:
    j = Var("jq", INT)
    return [
        eq(seq_len(new), seq_len(old)),
        eq(seq_lookup(new, index), value),
        Forall(
            ((j.name, INT),),
            implies(
                and_(ge(j, 0), lt(j, seq_len(old)), ne(j, index)),
                eq(seq_lookup(new, j), seq_lookup(old, j)),
            ),
        ),
    ]


def axioms_swap(old: Expr, new: Expr, i: Expr, j_index: Expr) -> List[Expr]:
    j = Var("jq", INT)
    return [
        eq(seq_len(new), seq_len(old)),
        eq(seq_lookup(new, i), seq_lookup(old, j_index)),
        eq(seq_lookup(new, j_index), seq_lookup(old, i)),
        Forall(
            ((j.name, INT),),
            implies(
                and_(ge(j, 0), lt(j, seq_len(old)), ne(j, i), ne(j, j_index)),
                eq(seq_lookup(new, j), seq_lookup(old, j)),
            ),
        ),
    ]


def axioms_havoc(seq: Expr) -> List[Expr]:
    return [ge(seq_len(seq), 0)]


def _add(lhs: Expr, rhs: int) -> Expr:
    from repro.logic.expr import add

    return add(lhs, rhs)
