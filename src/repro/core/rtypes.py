"""Refined types.

The type grammar follows §3.1 of the paper, adapted to the MIR setting:

* ``RIndexed(base, indices)`` — an indexed type ``B[r1, ..., rk]``; most
  bases take one index (``i32[n]``, ``RVec<T>[n]``, ``bool[b]``), refined
  structs/enums may take several (``RMat<T>[m, n]``).
* ``RExists(base, binders, pred)`` — an existential ``{v1...vk. B[v...] | p}``.
* ``RRef(kind, inner)`` — shared (``shr``) and mutable (``mut``) references.
* ``RPtr(target)`` — a strong pointer to a *known* place, the MIR counterpart
  of ``ptr(η)``; produced by direct ``&mut x`` borrows and consumed either as
  a strong reference (precise location known, strong updates allowed) or
  weakened into an ``&mut T`` when the context demands it.
* ``RUninit`` — uninitialised memory (the ``☇`` type).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.logic.expr import Expr, TRUE, Var
from repro.logic.sorts import BOOL, INT, REAL, Sort
from repro.logic.subst import substitute


# ---------------------------------------------------------------------------
# Base types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseTy:
    """Base class of refined base types."""

    def index_sorts(self) -> Tuple[Sort, ...]:
        return ()


@dataclass(frozen=True)
class BTInt(BaseTy):
    """Integer base types (any width/signedness); indexed by their value."""

    name: str = "i32"

    def index_sorts(self) -> Tuple[Sort, ...]:
        return (INT,)

    @property
    def unsigned(self) -> bool:
        return self.name.startswith("u")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BTBool(BaseTy):
    def index_sorts(self) -> Tuple[Sort, ...]:
        return (BOOL,)

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class BTFloat(BaseTy):
    """Floating point values carry no refinement (as in the paper's benchmarks)."""

    name: str = "f32"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BTUnit(BaseTy):
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class BTParam(BaseTy):
    """A generic type parameter ``T`` (instantiated at call sites)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BTAdt(BaseTy):
    """A (possibly generic) named type: ``RVec<T>``, ``Box<T>``, user structs/enums.

    ``sorts`` are the sorts of its refinement indices, as declared by
    ``#[flux::refined_by(...)]`` (``RVec`` is indexed by its length).
    """

    name: str
    args: Tuple["RType", ...] = ()
    sorts: Tuple[Sort, ...] = ()

    def index_sorts(self) -> Tuple[Sort, ...]:
        return self.sorts

    def __str__(self) -> str:
        if not self.args:
            return self.name
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}<{inner}>"


# ---------------------------------------------------------------------------
# Refined types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RType:
    """Base class of refined types."""


@dataclass(frozen=True)
class RIndexed(RType):
    base: BaseTy
    indices: Tuple[Expr, ...] = ()

    def __str__(self) -> str:
        if not self.indices:
            return str(self.base)
        inner = ", ".join(str(i) for i in self.indices)
        return f"{self.base}[{inner}]"


@dataclass(frozen=True)
class RExists(RType):
    base: BaseTy
    binders: Tuple[Tuple[str, Sort], ...]
    pred: Expr = TRUE

    def __str__(self) -> str:
        names = ", ".join(name for name, _ in self.binders)
        return f"{{{names}. {self.base}[{names}] | {self.pred}}}"


@dataclass(frozen=True)
class RRef(RType):
    kind: str  # "shr" or "mut"
    inner: RType

    def __str__(self) -> str:
        prefix = "&mut " if self.kind == "mut" else "&"
        return f"{prefix}{self.inner}"


@dataclass(frozen=True)
class RPtr(RType):
    """A strong pointer to a known local (the MIR stand-in for ``ptr(η)``)."""

    target: str  # local name

    def __str__(self) -> str:
        return f"ptr({self.target})"


@dataclass(frozen=True)
class RUninit(RType):
    def __str__(self) -> str:
        return "uninit"


UNIT = RIndexed(BTUnit())
UNINIT = RUninit()


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

_FRESH = itertools.count(1)


def fresh_name(hint: str = "a") -> str:
    return f"{hint}%{next(_FRESH)}"


def reset_fresh_names() -> None:
    """Restart the fresh-name counter.

    Tests and benchmarks only: binder names feed the solver's variable
    ordering, so resetting before a verification makes its diagnostics (in
    particular the golden-file counterexample valuations) independent of
    whatever ran earlier in the process, and a repeated verification
    reuses the interned terms of the first.  Never call this
    mid-verification — uniqueness of fresh names within one checker run
    depends on the counter not rewinding.
    """
    global _FRESH
    _FRESH = itertools.count(1)


def exists_of(base: BaseTy, pred_builder=None, hint: str = "v") -> RExists:
    """Build ``{v. B[v] | p}`` with fresh binder names."""
    sorts = base.index_sorts()
    binders = tuple((fresh_name(hint), sort) for sort in sorts)
    if pred_builder is None:
        pred = TRUE
    else:
        pred = pred_builder([Var(name, sort) for name, sort in binders])
    return RExists(base, binders, pred)


def unrefined(base: BaseTy) -> RType:
    """The weakest refined type of a given base: ``{v. B[v] | true}``."""
    if not base.index_sorts():
        return RIndexed(base, ())
    return exists_of(base)


def subst_rtype(rtype: RType, mapping: Mapping[str, Expr]) -> RType:
    """Substitute refinement variables inside a refined type."""
    if not mapping:
        return rtype
    if isinstance(rtype, RIndexed):
        return RIndexed(
            subst_base(rtype.base, mapping),
            tuple(substitute(index, mapping) for index in rtype.indices),
        )
    if isinstance(rtype, RExists):
        shadowed = {name for name, _ in rtype.binders}
        inner = {k: v for k, v in mapping.items() if k not in shadowed}
        return RExists(
            subst_base(rtype.base, mapping),
            rtype.binders,
            substitute(rtype.pred, inner) if inner else rtype.pred,
        )
    if isinstance(rtype, RRef):
        return RRef(rtype.kind, subst_rtype(rtype.inner, mapping))
    return rtype


def subst_base(base: BaseTy, mapping: Mapping[str, Expr]) -> BaseTy:
    if isinstance(base, BTAdt):
        return BTAdt(base.name, tuple(subst_rtype(a, mapping) for a in base.args), base.sorts)
    return base


def subst_type_params(rtype: RType, mapping: Mapping[str, RType]) -> RType:
    """Instantiate generic type parameters (``T``) inside a refined type."""
    if not mapping:
        return rtype
    if isinstance(rtype, RIndexed):
        if isinstance(rtype.base, BTParam) and rtype.base.name in mapping:
            return mapping[rtype.base.name]
        return RIndexed(_subst_params_base(rtype.base, mapping), rtype.indices)
    if isinstance(rtype, RExists):
        if isinstance(rtype.base, BTParam) and rtype.base.name in mapping:
            # {v. T[v] | p} with T instantiated: the replacement carries its own
            # refinement, which the existential's (trivial) predicate cannot
            # strengthen for an opaque parameter, so we drop it.
            return mapping[rtype.base.name]
        return RExists(_subst_params_base(rtype.base, mapping), rtype.binders, rtype.pred)
    if isinstance(rtype, RRef):
        return RRef(rtype.kind, subst_type_params(rtype.inner, mapping))
    return rtype


def _subst_params_base(base: BaseTy, mapping: Mapping[str, RType]) -> BaseTy:
    if isinstance(base, BTAdt):
        return BTAdt(
            base.name,
            tuple(subst_type_params(a, mapping) for a in base.args),
            base.sorts,
        )
    return base


def base_of(rtype: RType) -> Optional[BaseTy]:
    if isinstance(rtype, RIndexed):
        return rtype.base
    if isinstance(rtype, RExists):
        return rtype.base
    return None


def base_invariants(base: BaseTy, indices: Sequence[Expr]) -> List[Expr]:
    """Invariants that hold of any value of a base type.

    Unsigned integers are non-negative; vector lengths are non-negative.
    These facts are assumed whenever a value of the type enters the context
    (mirroring Flux's built-in invariants for ``usize`` and ``RVec``).
    """
    from repro.logic.expr import ge

    facts: List[Expr] = []
    if isinstance(base, BTInt) and base.unsigned and indices:
        facts.append(ge(indices[0], 0))
    if isinstance(base, BTAdt) and base.name in ("RVec", "RMat") and indices:
        for index in indices:
            facts.append(ge(index, 0))
    return facts
