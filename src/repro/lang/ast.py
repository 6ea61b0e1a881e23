"""Surface abstract syntax for MiniRust programs.

The grammar covers the safe-Rust fragment used by the paper's examples and
benchmarks: function items with attributes, structs and enums with refined
variants, lets, loops, conditionals (as expressions), borrows, dereferences,
method calls on the vector API, struct literals and matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.lang.span import Span


def span_field():
    """A source-span slot: provenance only, excluded from equality/repr.

    The service result cache fingerprints ASTs through ``repr`` and tests
    compare nodes structurally; spans must never participate in either.
    """
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Types (plain Rust types, before refinement)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Base class for surface types."""


@dataclass(frozen=True)
class TyName(Type):
    """A named type, possibly with generic arguments: ``i32``, ``RVec<f32>``."""

    name: str
    args: Tuple[Type, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}<{inner}>"


@dataclass(frozen=True)
class TyRef(Type):
    """A reference type ``&T`` or ``&mut T``."""

    mutable: bool
    inner: Type

    def __str__(self) -> str:
        return f"&mut {self.inner}" if self.mutable else f"&{self.inner}"


@dataclass(frozen=True)
class TyUnit(Type):
    def __str__(self) -> str:
        return "()"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for surface expressions."""


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class VarExpr(Expr):
    name: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class UnaryExpr(Expr):
    op: str  # "-" or "!"
    operand: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class BinaryExpr(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class CallExpr(Expr):
    """A call to a free function or a path (``RVec::new``, ``List::Cons``)."""

    func: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class MethodCallExpr(Expr):
    receiver: Expr
    method: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class FieldExpr(Expr):
    receiver: Expr
    field: str
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class BorrowExpr(Expr):
    mutable: bool
    place: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class DerefExpr(Expr):
    place: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class StructLit(Expr):
    name: str
    fields: Tuple[Tuple[str, Expr], ...]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class IfExpr(Expr):
    cond: Expr
    then_block: "Block"
    else_block: Optional["Block"]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class MatchArm:
    variant: str  # qualified variant name, e.g. "List::Cons", or "_" for wildcard
    bindings: Tuple[str, ...]
    body: "Block"


@dataclass(frozen=True)
class MatchExpr(Expr):
    scrutinee: Expr
    arms: Tuple[MatchArm, ...]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class BlockExpr(Expr):
    block: "Block"
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class CastExpr(Expr):
    operand: Expr
    target: Type
    span: Optional[Span] = span_field()


# ---------------------------------------------------------------------------
# Statements and blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for statements."""


@dataclass(frozen=True)
class LetStmt(Stmt):
    name: str
    mutable: bool
    ty: Optional[Type]
    init: Optional[Expr]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class AssignStmt(Stmt):
    """``place = expr`` or compound ``place += expr`` and friends."""

    place: Expr
    op: Optional[str]  # None for plain assignment, "+" for +=, etc.
    value: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class WhileStmt(Stmt):
    cond: Expr
    body: "Block"
    invariants: Tuple["RawSpec", ...] = ()
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    value: Optional[Expr]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class MacroStmt(Stmt):
    """Macro invocations kept for the baseline: ``body_invariant!``, ``assert!``."""

    name: str
    tokens: Tuple[str, ...]  # the raw token texts between the parentheses
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Block:
    stmts: Tuple[Stmt, ...]
    tail: Optional[Expr] = None  # trailing expression without a semicolon


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawSpec:
    """An un-interpreted attribute: ``#[name(tokens...)]``.

    The Flux signature parser and the Prusti spec parser consume the raw token
    texts; keeping them raw in the AST mirrors how rustc hands attribute
    token-streams to plug-ins.
    """

    name: str
    tokens: Tuple[str, ...]
    span: Optional[Span] = span_field()


@dataclass(frozen=True)
class Param:
    name: str
    ty: Type


@dataclass(frozen=True)
class FnDef:
    name: str
    generics: Tuple[str, ...]
    params: Tuple[Param, ...]
    ret: Type
    body: Optional[Block]  # None for extern/trusted declarations
    attrs: Tuple[RawSpec, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class FieldDef:
    name: str
    ty: Type
    attrs: Tuple[RawSpec, ...] = ()


@dataclass(frozen=True)
class StructDef:
    name: str
    generics: Tuple[str, ...]
    fields: Tuple[FieldDef, ...]
    attrs: Tuple[RawSpec, ...] = ()


@dataclass(frozen=True)
class VariantDef:
    name: str
    fields: Tuple[Type, ...]
    attrs: Tuple[RawSpec, ...] = ()


@dataclass(frozen=True)
class EnumDef:
    name: str
    generics: Tuple[str, ...]
    variants: Tuple[VariantDef, ...]
    attrs: Tuple[RawSpec, ...] = ()


@dataclass(frozen=True)
class Program:
    functions: Tuple[FnDef, ...] = ()
    structs: Tuple[StructDef, ...] = ()
    enums: Tuple[EnumDef, ...] = ()

    def function(self, name: str) -> FnDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")
