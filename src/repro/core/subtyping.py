"""Syntax-directed subtyping, generating Horn constraints.

This implements the subtyping judgement of Fig. 9: indexed types are related
by equating their indices, existentials unpack on the left and instantiate on
the right, shared references are covariant and mutable references invariant.
The result of a subtyping check is a :mod:`repro.fixpoint` constraint tree;
no SMT query happens here — that is the job of the inference phase.
"""

from __future__ import annotations

from typing import List

from repro.logic.expr import Expr, FALSE, TRUE, Var, eq
from repro.fixpoint.constraint import Constraint, c_conj, c_forall, c_pred
from repro.core.rtypes import (
    BTAdt,
    BTBool,
    BTFloat,
    BTInt,
    BTParam,
    BTUnit,
    BaseTy,
    RExists,
    RIndexed,
    RPtr,
    RRef,
    RType,
    RUninit,
    fresh_name,
    subst_rtype,
)


def bases_compatible(lhs: BaseTy, rhs: BaseTy) -> bool:
    """Structural compatibility of base types.

    Integer widths are identified (the refinement layer views them all at
    sort ``int``; the paper likewise elides overflow reasoning, §2 fn. 2).
    """
    if isinstance(lhs, BTInt) and isinstance(rhs, BTInt):
        return True
    if isinstance(lhs, BTBool) and isinstance(rhs, BTBool):
        return True
    if isinstance(lhs, BTFloat) and isinstance(rhs, BTFloat):
        return True
    if isinstance(lhs, BTUnit) and isinstance(rhs, BTUnit):
        return True
    if isinstance(lhs, BTParam) and isinstance(rhs, BTParam):
        return lhs.name == rhs.name
    if isinstance(lhs, BTAdt) and isinstance(rhs, BTAdt):
        return lhs.name == rhs.name and len(lhs.args) == len(rhs.args)
    return False


def subtype(lhs: RType, rhs: RType, tag: str) -> Constraint:
    """Constraint whose validity implies ``lhs <: rhs``."""
    # Unpack existentials on the left: S-unpack.
    if isinstance(lhs, RExists):
        fresh = [(fresh_name(name.split("%")[0] or "v"), sort) for name, sort in lhs.binders]
        mapping = {old: Var(new, sort) for (old, _), (new, sort) in zip(lhs.binders, fresh)}
        opened = RIndexed(
            subst_base_args(lhs.base, mapping),
            tuple(Var(new, sort) for new, sort in fresh),
        )
        hypothesis = _subst_expr(lhs.pred, mapping)
        inner = subtype(opened, rhs, tag)
        for name, sort in reversed(fresh):
            inner = c_forall(name, sort, hypothesis, inner)
            hypothesis = TRUE
        return inner

    if isinstance(lhs, RIndexed) and isinstance(rhs, RIndexed):
        if not bases_compatible(lhs.base, rhs.base):
            return c_pred(FALSE, tag=f"{tag}: base type mismatch {lhs.base} vs {rhs.base}")
        parts: List[Constraint] = []
        for left_index, right_index in zip(lhs.indices, rhs.indices):
            parts.append(c_pred(eq(left_index, right_index), tag=tag))
        parts.extend(_adt_arg_constraints(lhs.base, rhs.base, tag))
        return c_conj(*parts)

    if isinstance(lhs, RIndexed) and isinstance(rhs, RExists):
        if not bases_compatible(lhs.base, rhs.base):
            return c_pred(FALSE, tag=f"{tag}: base type mismatch {lhs.base} vs {rhs.base}")
        mapping = {
            name: index for (name, _), index in zip(rhs.binders, lhs.indices)
        }
        parts = [c_pred(_subst_expr(rhs.pred, mapping), tag=tag)]
        parts.extend(_adt_arg_constraints(lhs.base, rhs.base, tag))
        return c_conj(*parts)

    if isinstance(lhs, RRef) and isinstance(rhs, RRef):
        if lhs.kind == "shr" and rhs.kind == "shr":
            return subtype(lhs.inner, rhs.inner, tag)
        if lhs.kind == "mut" and rhs.kind == "mut":
            return c_conj(
                subtype(lhs.inner, rhs.inner, tag),
                subtype(rhs.inner, lhs.inner, tag),
            )
        if lhs.kind == "mut" and rhs.kind == "shr":
            # &mut T coerces to &T
            return subtype(lhs.inner, rhs.inner, tag)
        return c_pred(FALSE, tag=f"{tag}: reference kind mismatch")

    if isinstance(lhs, RUninit) and isinstance(rhs, RUninit):
        return c_pred(TRUE)
    if isinstance(lhs, RPtr) and isinstance(rhs, RPtr):
        if lhs.target == rhs.target:
            return c_pred(TRUE)
        return c_pred(FALSE, tag=f"{tag}: strong pointers to different places")

    return c_pred(FALSE, tag=f"{tag}: cannot relate {lhs} and {rhs}")


def _adt_arg_constraints(lhs: BaseTy, rhs: BaseTy, tag: str) -> List[Constraint]:
    """Element types of containers are invariant (they sit under mutation)."""
    if not isinstance(lhs, BTAdt) or not isinstance(rhs, BTAdt):
        return []
    parts: List[Constraint] = []
    for left_arg, right_arg in zip(lhs.args, rhs.args):
        if left_arg == right_arg:
            continue
        parts.append(subtype(left_arg, right_arg, tag))
        parts.append(subtype(right_arg, left_arg, tag))
    return parts


def subst_base_args(base: BaseTy, mapping) -> BaseTy:
    if isinstance(base, BTAdt):
        return BTAdt(base.name, tuple(subst_rtype(a, mapping) for a in base.args), base.sorts)
    return base


def _subst_expr(expr: Expr, mapping) -> Expr:
    from repro.logic.subst import substitute

    return substitute(expr, mapping)
