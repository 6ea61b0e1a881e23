"""Horn constraint trees and their flattening into clause form.

The checker builds *nested* constraints that mirror the typing derivation
(binders introduced by `unpack`, hypotheses introduced by branch conditions,
obligations produced by subtyping).  The solver works on the *flattened*
form: a list of clauses ``binders; hypotheses |- head`` where the head is
either a concrete predicate or an application of a κ variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.lang.span import Span
from repro.logic.expr import Expr, KVar, TRUE
from repro.logic.sorts import Sort


class ConstraintError(Exception):
    """Raised on malformed constraints (e.g. unknown κ variables)."""


@dataclass(frozen=True)
class KVarDecl:
    """Declaration of an unknown refinement predicate κ.

    ``params`` are the formal parameters (name and sort); by convention the
    first parameter is the "value" variable of the refined type and the rest
    are program refinement variables in scope at the kvar's creation point.
    """

    name: str
    params: Tuple[Tuple[str, Sort], ...]

    @property
    def arity(self) -> int:
        return len(self.params)


# -- constraint tree ---------------------------------------------------------


@dataclass(frozen=True)
class Pred:
    """Leaf obligation: prove ``expr`` (a concrete predicate or a κ application).

    ``span`` is the source region the obligation blames — the surface
    expression whose checking produced it.  Like every span it is
    provenance only and excluded from equality.
    """

    expr: Expr
    tag: str = ""
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Conj:
    parts: Tuple["Constraint", ...]


@dataclass(frozen=True)
class ForallCstr:
    """``forall var:sort. hypothesis => body``."""

    var: str
    sort: Sort
    hypothesis: Expr
    body: "Constraint"


@dataclass(frozen=True)
class ImplCstr:
    """``hypothesis => body`` without introducing a binder."""

    hypothesis: Expr
    body: "Constraint"


Constraint = Union[Pred, Conj, ForallCstr, ImplCstr]


def c_pred(expr: Expr, tag: str = "", span: Optional[Span] = None) -> Constraint:
    return Pred(expr, tag, span)


def attach_span(constraint: Constraint, span: Optional[Span]) -> Constraint:
    """Stamp ``span`` onto every ``Pred`` leaf that does not carry one yet.

    The checker calls this at constraint-emission time: the subtyping rules
    build their obligation trees without source knowledge, and the checker
    knows which MIR statement (and so which surface expression) it is
    processing.
    """
    if span is None:
        return constraint
    if isinstance(constraint, Pred):
        if constraint.span is not None:
            return constraint
        return Pred(constraint.expr, constraint.tag, span)
    if isinstance(constraint, Conj):
        return Conj(tuple(attach_span(part, span) for part in constraint.parts))
    if isinstance(constraint, ForallCstr):
        return ForallCstr(
            constraint.var,
            constraint.sort,
            constraint.hypothesis,
            attach_span(constraint.body, span),
        )
    if isinstance(constraint, ImplCstr):
        return ImplCstr(constraint.hypothesis, attach_span(constraint.body, span))
    raise ConstraintError(f"unknown constraint node {constraint!r}")


def c_conj(*parts: Constraint) -> Constraint:
    flattened: List[Constraint] = []
    for part in parts:
        if isinstance(part, Conj):
            flattened.extend(part.parts)
        elif isinstance(part, Pred) and part.expr == TRUE and not part.tag:
            continue
        else:
            flattened.append(part)
    if len(flattened) == 1:
        return flattened[0]
    return Conj(tuple(flattened))


def c_forall(var: str, sort: Sort, hypothesis: Expr, body: Constraint) -> Constraint:
    return ForallCstr(var, sort, hypothesis, body)


def c_implies(hypothesis: Expr, body: Constraint) -> Constraint:
    if hypothesis == TRUE:
        return body
    return ImplCstr(hypothesis, body)


# -- flattened clause form ----------------------------------------------------


@dataclass
class Head:
    """Head of a flat constraint: concrete predicate or κ application."""

    expr: Expr

    @property
    def is_kvar(self) -> bool:
        return isinstance(self.expr, KVar)

    @property
    def kvar(self) -> KVar:
        if not isinstance(self.expr, KVar):
            raise ConstraintError("head is not a κ application")
        return self.expr


@dataclass
class FlatConstraint:
    """A clause ``binders; hypotheses |- head`` with a provenance tag and span."""

    binders: List[Tuple[str, Sort]] = field(default_factory=list)
    hypotheses: List[Expr] = field(default_factory=list)
    head: Head = field(default_factory=lambda: Head(TRUE))
    tag: str = ""
    span: Optional[Span] = None

    @property
    def sort_env(self) -> Dict[str, Sort]:
        return {name: sort for name, sort in self.binders}

    def describe(self) -> str:
        hypotheses = ", ".join(str(h) for h in self.hypotheses) or "true"
        return f"[{self.tag}] {hypotheses} |- {self.head.expr}"


def flatten(constraint: Constraint) -> List[FlatConstraint]:
    """Flatten a constraint tree into clause form."""
    result: List[FlatConstraint] = []
    _flatten(constraint, [], [], result)
    return result


def _flatten(
    constraint: Constraint,
    binders: List[Tuple[str, Sort]],
    hypotheses: List[Expr],
    out: List[FlatConstraint],
) -> None:
    if isinstance(constraint, Pred):
        if constraint.expr == TRUE and not constraint.tag:
            return
        out.append(
            FlatConstraint(
                binders=list(binders),
                hypotheses=list(hypotheses),
                head=Head(constraint.expr),
                tag=constraint.tag,
                span=constraint.span,
            )
        )
        return
    if isinstance(constraint, Conj):
        for part in constraint.parts:
            _flatten(part, binders, hypotheses, out)
        return
    if isinstance(constraint, ForallCstr):
        binders.append((constraint.var, constraint.sort))
        added_hypothesis = constraint.hypothesis != TRUE
        if added_hypothesis:
            hypotheses.append(constraint.hypothesis)
        _flatten(constraint.body, binders, hypotheses, out)
        if added_hypothesis:
            hypotheses.pop()
        binders.pop()
        return
    if isinstance(constraint, ImplCstr):
        added_hypothesis = constraint.hypothesis != TRUE
        if added_hypothesis:
            hypotheses.append(constraint.hypothesis)
        _flatten(constraint.body, binders, hypotheses, out)
        if added_hypothesis:
            hypotheses.pop()
        return
    raise ConstraintError(f"unknown constraint node {constraint!r}")
