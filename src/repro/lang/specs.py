"""Parsers for the two specification languages.

* **Flux signatures** — ``#[flux::sig(fn(i32[@n]) -> bool[n > 0])]``,
  ``#[flux::refined_by(len: int)]``, ``#[flux::variant((T, Box<List<T>[@n]>)
  -> List<T>[n+1])]`` and ``#[flux::field(...)]`` attributes, parsed into the
  surface refined-type AST of this module.

* **Prusti-style specs** — ``#[requires(...)]``, ``#[ensures(...)]`` and
  ``body_invariant!(...)``, parsed directly into refinement-logic
  expressions (:mod:`repro.logic`) where program operations appear as
  uninterpreted applications (``len(v)``, ``lookup(v, i)``, ``old(e)``).

Both share MiniRust's lexer: attributes arrive as the raw token texts the
program parser captured, and each text is read back as one token, at the
column it has in the texts joined by spaces (see
:func:`repro.lang.lexer.tokenize_texts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.lang.lexer import TokenStream, tokenize_texts
from repro.lang.parser import ParseError
from repro.logic.expr import (
    binop,
    unary,
    App,
    BoolConst,
    Expr,
    Forall,
    IntConst,
    Var,
    implies,
    not_,
)
from repro.logic.sorts import BOOL, INT, REAL, Sort


# ---------------------------------------------------------------------------
# Surface refined types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfTy:
    """Base class of surface refined types appearing in Flux signatures."""


@dataclass(frozen=True)
class SurfBase(SurfTy):
    """``B``, ``B[idx, ...]`` or ``B{v: pred}`` where B may take type args.

    ``indices`` entries are either refinement expressions or ``BindIndex``
    markers for ``@n`` parameter-binding positions.
    """

    name: str
    args: Tuple[SurfTy, ...] = ()
    indices: Tuple[object, ...] = ()
    exists_binder: Optional[str] = None
    exists_pred: Optional[Expr] = None


@dataclass(frozen=True)
class BindIndex:
    """An ``@n`` occurrence: binds a refinement parameter at this index."""

    name: str


@dataclass(frozen=True)
class SurfRef(SurfTy):
    """``&T``, ``&mut T`` or ``&strg T``."""

    kind: str  # "shr", "mut" or "strg"
    inner: SurfTy


@dataclass(frozen=True)
class SurfUnit(SurfTy):
    pass


@dataclass(frozen=True)
class SigParam:
    name: Optional[str]
    ty: SurfTy


@dataclass(frozen=True)
class FluxSigAst:
    params: Tuple[SigParam, ...]
    ret: Optional[SurfTy]
    ensures: Tuple[Tuple[str, SurfTy], ...]  # (place name, new type)


@dataclass(frozen=True)
class VariantSigAst:
    fields: Tuple[SurfTy, ...]
    ret: SurfBase


# Type aliases used in the paper's examples (§2.1: "nat abbreviates
# i32{v: v >= 0}").
TYPE_ALIASES = {
    "nat": ("i32", binop(">=", Var("v"), IntConst(0))),
}


# ---------------------------------------------------------------------------
# Refinement expression parser (shared by Flux signatures)
# ---------------------------------------------------------------------------


class _SpecParser:
    def __init__(self, tokens: Sequence[str]) -> None:
        self.ts = TokenStream(tokenize_texts(tokens))

    # refinement expressions -----------------------------------------------

    def expr(self) -> Expr:
        return self._implies()

    def _implies(self) -> Expr:
        lhs = self._or()
        # Prusti writes implication as ==> which lexes as "==" ">"
        if self.ts.at("==") and self.ts.peek(1).text == ">":
            self.ts.next()
            self.ts.next()
            return implies(lhs, self._implies())
        if self.ts.at("=>"):
            self.ts.next()
            return implies(lhs, self._implies())
        return lhs

    def _or(self) -> Expr:
        expr = self._and()
        while self.ts.at("||"):
            self.ts.next()
            expr = binop("||", expr, self._and())
        return expr

    def _and(self) -> Expr:
        expr = self._cmp()
        while self.ts.at("&&"):
            self.ts.next()
            expr = binop("&&", expr, self._cmp())
        return expr

    def _cmp(self) -> Expr:
        expr = self._add()
        token = self.ts.peek().text
        if token in ("==", "!=", "<", "<=", ">", ">=") and not (
            token == "==" and self.ts.peek(1).text == ">"
        ):
            self.ts.next()
            rhs = self._add()
            op = "=" if token == "==" else token
            return binop(op, expr, rhs)
        if token == "=" and self.ts.peek(1).text != ">":
            self.ts.next()
            return binop("=", expr, self._add())
        return expr

    def _add(self) -> Expr:
        expr = self._mul()
        while self.ts.peek().text in ("+", "-"):
            op = self.ts.next().text
            expr = binop(op, expr, self._mul())
        return expr

    def _mul(self) -> Expr:
        expr = self._unary()
        while self.ts.peek().text in ("*", "/", "%"):
            op = self.ts.next().text
            expr = binop(op, expr, self._unary())
        return expr

    def _unary(self) -> Expr:
        if self.ts.at("-"):
            self.ts.next()
            return unary("-", self._unary())
        if self.ts.at("!"):
            self.ts.next()
            return not_(self._unary())
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while self.ts.at("."):
            self.ts.next()
            name = self.ts.expect_kind("ident").text
            if self.ts.at("("):
                args = self._call_args()
                expr = App(name, (expr, *args), INT if name != "is_some" else BOOL)
            else:
                expr = App(f"field_{name}", (expr,), INT)
        return expr

    def _call_args(self) -> Tuple[Expr, ...]:
        self.ts.expect("(")
        args: List[Expr] = []
        while not self.ts.accept(")"):
            args.append(self.expr())
            self.ts.accept(",")
        return tuple(args)

    def _primary(self) -> Expr:
        token = self.ts.peek()
        if token.kind == "int":
            self.ts.next()
            return IntConst(int(token.text))
        if self.ts.at("true"):
            self.ts.next()
            return BoolConst(True)
        if self.ts.at("false"):
            self.ts.next()
            return BoolConst(False)
        if self.ts.at("("):
            self.ts.next()
            expr = self.expr()
            self.ts.expect(")")
            return expr
        if self.ts.at("forall"):
            return self._forall()
        if self.ts.at("old"):
            self.ts.next()
            self.ts.expect("(")
            inner = self.expr()
            self.ts.expect(")")
            return App("old", (inner,), INT)
        if token.kind == "ident" or self.ts.at("self"):
            self.ts.next()
            name = token.text
            if self.ts.at("("):
                args = self._call_args()
                return App(name, args, INT)
            return Var(name)
        raise ParseError(f"unexpected token {token.text!r} in specification")

    def _forall(self) -> Expr:
        self.ts.expect("forall")
        self.ts.expect("(")
        self.ts.expect("|")
        binders: List[Tuple[str, Sort]] = []
        while not self.ts.accept("|"):
            name = self.ts.expect_kind("ident").text
            sort = INT
            if self.ts.accept(":"):
                sort_name = self.ts.expect_kind("ident").text
                sort = _sort_of_surface(sort_name)
            binders.append((name, sort))
            self.ts.accept(",")
        body = self.expr()
        self.ts.expect(")")
        return Forall(tuple(binders), body)

    # surface refined types ----------------------------------------------------

    def surf_type(self) -> SurfTy:
        if self.ts.accept("&"):
            if self.ts.accept("mut"):
                return SurfRef("mut", self.surf_type())
            if self.ts.accept("strg"):
                return SurfRef("strg", self.surf_type())
            return SurfRef("shr", self.surf_type())
        if self.ts.at("("):
            # unit type in return position
            self.ts.expect("(")
            self.ts.expect(")")
            return SurfUnit()
        name_token = self.ts.peek()
        if name_token.kind not in ("ident", "keyword"):
            raise ParseError(f"expected a type, found {name_token.text!r}")
        name = self.ts.next().text

        args: List[SurfTy] = []
        if self.ts.at("<"):
            self.ts.expect("<")
            while not self.ts.accept(">"):
                args.append(self.surf_type())
                self.ts.accept(",")

        if name in TYPE_ALIASES and not args:
            base_name, pred = TYPE_ALIASES[name]
            return SurfBase(base_name, (), (), "v", pred)

        indices: List[object] = []
        binder: Optional[str] = None
        pred: Optional[Expr] = None
        if self.ts.at("["):
            self.ts.expect("[")
            while not self.ts.accept("]"):
                if self.ts.accept("@"):
                    indices.append(BindIndex(self.ts.expect_kind("ident").text))
                else:
                    indices.append(self.expr())
                self.ts.accept(",")
        if self.ts.at("{"):
            # Either ``B{v: pred}`` (existential) or ``B[@n]{v: pred}``
            # (indexed type with a constraint on its first index).
            self.ts.expect("{")
            binder = self.ts.expect_kind("ident").text
            self.ts.expect(":")
            pred = self.expr()
            self.ts.expect("}")
        return SurfBase(name, tuple(args), tuple(indices), binder, pred)

    # flux signature ---------------------------------------------------------------

    def flux_sig(self) -> FluxSigAst:
        self.ts.expect("fn")
        self.ts.expect("(")
        params: List[SigParam] = []
        while not self.ts.accept(")"):
            name: Optional[str] = None
            if (
                self.ts.peek().kind in ("ident", "keyword")
                and self.ts.peek().text not in ("strg",)
                and self.ts.peek(1).text == ":"
            ):
                name = self.ts.next().text
                self.ts.expect(":")
            params.append(SigParam(name, self.surf_type()))
            self.ts.accept(",")
        ret: Optional[SurfTy] = None
        if self.ts.accept("->"):
            ret = self.surf_type()
        ensures: List[Tuple[str, SurfTy]] = []
        if self.ts.accept("ensures"):
            while True:
                self.ts.expect("*")
                place_token = self.ts.peek()
                if place_token.kind in ("ident", "keyword"):
                    place = self.ts.next().text
                else:
                    raise ParseError(f"expected a place name after '*', found {place_token.text!r}")
                self.ts.expect(":")
                ensures.append((place, self.surf_type()))
                if not self.ts.accept(","):
                    break
        return FluxSigAst(tuple(params), ret, tuple(ensures))

    def refined_by(self) -> Tuple[Tuple[str, Sort], ...]:
        entries: List[Tuple[str, Sort]] = []
        while not self.ts.at_kind("eof"):
            name = self.ts.expect_kind("ident").text
            self.ts.expect(":")
            sort_name = self.ts.expect_kind("ident").text
            entries.append((name, _sort_of_surface(sort_name)))
            self.ts.accept(",")
        return tuple(entries)

    def variant_sig(self) -> VariantSigAst:
        fields: List[SurfTy] = []
        if self.ts.at("("):
            self.ts.expect("(")
            while not self.ts.accept(")"):
                fields.append(self.surf_type())
                self.ts.accept(",")
            self.ts.expect("->")
        ret = self.surf_type()
        if not isinstance(ret, SurfBase):
            raise ParseError("variant signature must return the refined enum type")
        return VariantSigAst(tuple(fields), ret)


def _sort_of_surface(name: str) -> Sort:
    mapping = {"int": INT, "bool": BOOL, "usize": INT, "i32": INT, "real": REAL}
    if name not in mapping:
        raise ParseError(f"unknown refinement sort {name!r}")
    return mapping[name]


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_flux_sig(tokens: Sequence[str]) -> FluxSigAst:
    return _SpecParser(tokens).flux_sig()


def parse_refined_by(tokens: Sequence[str]) -> Tuple[Tuple[str, Sort], ...]:
    return _SpecParser(tokens).refined_by()


def parse_variant_sig(tokens: Sequence[str]) -> VariantSigAst:
    return _SpecParser(tokens).variant_sig()


def parse_field_type(tokens: Sequence[str]) -> SurfTy:
    return _SpecParser(tokens).surf_type()


def parse_spec_expr(tokens: Sequence[str]) -> Expr:
    """Parse a Prusti-style spec expression (requires/ensures/invariant)."""
    return _SpecParser(tokens).expr()
