"""Recursive-descent parser for MiniRust.

The grammar follows Rust closely for the fragment the paper exercises.  The
entry point is :func:`parse_program`; individual helpers are exposed for the
tests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang.ast import (
    AssignStmt,
    BinaryExpr,
    Block,
    BlockExpr,
    BoolLit,
    BorrowExpr,
    CallExpr,
    CastExpr,
    DerefExpr,
    EnumDef,
    Expr,
    ExprStmt,
    FieldDef,
    FieldExpr,
    FloatLit,
    FnDef,
    IfExpr,
    IntLit,
    LetStmt,
    MacroStmt,
    MatchArm,
    MatchExpr,
    MethodCallExpr,
    Param,
    Program,
    RawSpec,
    ReturnStmt,
    Stmt,
    StructDef,
    StructLit,
    TyName,
    TyRef,
    TyUnit,
    Type,
    UnaryExpr,
    VarExpr,
    VariantDef,
    WhileStmt,
)
from repro.lang.lexer import Token, TokenStream, tokenize
from repro.lang.span import Span, merge_spans


class ParseError(Exception):
    """Raised on a syntax error, with position information in the message."""


COMPOUND_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "/=": "/"}


def parse_program(source: str) -> Program:
    """Parse a MiniRust source file into a :class:`Program`."""
    parser = _Parser(TokenStream(tokenize(source)))
    return parser.program()


class _Parser:
    def __init__(self, stream: TokenStream) -> None:
        self.ts = stream

    # -- spans ----------------------------------------------------------------

    def _close(self, start: Token) -> Span:
        """The span from ``start`` through the last consumed token."""
        return start.span.merge(self.ts.previous().span)

    # -- items ----------------------------------------------------------------

    def program(self) -> Program:
        functions: List[FnDef] = []
        structs: List[StructDef] = []
        enums: List[EnumDef] = []
        while not self.ts.at_kind("eof"):
            attrs = self.attributes()
            self.ts.accept("pub")
            token = self.ts.peek()
            if self.ts.at("fn"):
                functions.append(self.function(attrs))
            elif self.ts.at("struct"):
                structs.append(self.struct_def(attrs))
            elif self.ts.at("enum"):
                enums.append(self.enum_def(attrs))
            elif self.ts.at("impl"):
                functions.extend(self.impl_block())
            elif self.ts.at("use"):
                while not self.ts.accept(";"):
                    self.ts.next()
            else:
                raise ParseError(
                    f"unexpected token {token.text!r} at top level "
                    f"(line {token.line})"
                )
        return Program(tuple(functions), tuple(structs), tuple(enums))

    def attributes(self) -> Tuple[RawSpec, ...]:
        attrs: List[RawSpec] = []
        while self.ts.at("#[") or self.ts.at("#"):
            start = self.ts.peek()
            if self.ts.accept("#["):
                pass
            else:
                self.ts.expect("#")
                self.ts.expect("[")
            name = self._attr_path()
            tokens: List[str] = []
            if self.ts.at("("):
                tokens = self._balanced_tokens("(", ")")
            self.ts.expect("]")
            attrs.append(RawSpec(name, tuple(tokens), span=self._close(start)))
        return tuple(attrs)

    def _attr_path(self) -> str:
        parts = [self._ident_or_keyword()]
        while self.ts.accept("::"):
            parts.append(self._ident_or_keyword())
        return "::".join(parts)

    def _ident_or_keyword(self) -> str:
        token = self.ts.peek()
        if token.kind not in ("ident", "keyword"):
            raise ParseError(
                f"expected an identifier, found {token.text!r} (line {token.line})"
            )
        return self.ts.next().text

    def _balanced_tokens(self, open_tok: str, close_tok: str) -> List[str]:
        """Consume a balanced token group and return the raw texts inside."""
        self.ts.expect(open_tok)
        tokens = self.ts.tokens
        start = self.ts.position
        depth = 1
        for end in range(start, len(tokens) - 1):
            text = tokens[end].text
            if text == open_tok:
                depth += 1
            elif text == close_tok:
                depth -= 1
                if depth == 0:
                    self.ts.rewind(end + 1)
                    return [token.text for token in tokens[start:end]]
        raise ParseError("unterminated attribute argument list")

    def generics(self) -> Tuple[str, ...]:
        if not self.ts.accept("<"):
            return ()
        names: List[str] = []
        while not self.ts.accept(">"):
            names.append(self.ts.expect_kind("ident").text)
            self.ts.accept(",")
        return tuple(names)

    def function(self, attrs: Tuple[RawSpec, ...], self_type: Optional[TyName] = None, prefix: str = "") -> FnDef:
        line = self.ts.peek().line
        self.ts.expect("fn")
        name = self.ts.expect_kind("ident").text
        generics = self.generics()
        params = self.fn_params(self_type)
        ret: Type = TyUnit()
        if self.ts.accept("->"):
            ret = self.type_()
        body: Optional[Block] = None
        if self.ts.at("{"):
            body = self.block()
        else:
            self.ts.expect(";")
        full_name = f"{prefix}{name}" if prefix else name
        return FnDef(full_name, generics, tuple(params), ret, body, attrs, line)

    def fn_params(self, self_type: Optional[TyName]) -> List[Param]:
        self.ts.expect("(")
        params: List[Param] = []
        while not self.ts.accept(")"):
            if self.ts.at("&") or self.ts.at("self") or self.ts.at("mut"):
                # possibly a self parameter: self, &self, &mut self, mut self
                saved = self.ts.position
                mutable_ref = False
                is_ref = False
                if self.ts.accept("&"):
                    is_ref = True
                    mutable_ref = bool(self.ts.accept("mut"))
                else:
                    self.ts.accept("mut")
                if self.ts.accept("self") and not self.ts.at(":"):
                    if self_type is None:
                        raise ParseError("self parameter outside an impl block")
                    ty: Type = self_type
                    if is_ref:
                        ty = TyRef(mutable_ref, self_type)
                    params.append(Param("self", ty))
                    self.ts.accept(",")
                    continue
                self.ts.rewind(saved)
            name = self._param_name()
            self.ts.expect(":")
            ty = self.type_()
            params.append(Param(name, ty))
            self.ts.accept(",")
        return params

    def _param_name(self) -> str:
        self.ts.accept("mut")
        if self.ts.at("self"):
            return self.ts.next().text
        token = self.ts.peek()
        if token.kind == "ident" or token.text == "_":
            return self.ts.next().text
        raise ParseError(f"expected parameter name, found {token.text!r} (line {token.line})")

    def struct_def(self, attrs: Tuple[RawSpec, ...]) -> StructDef:
        self.ts.expect("struct")
        name = self.ts.expect_kind("ident").text
        generics = self.generics()
        self.ts.expect("{")
        fields: List[FieldDef] = []
        while not self.ts.accept("}"):
            field_attrs = self.attributes()
            self.ts.accept("pub")
            field_name = self.ts.expect_kind("ident").text
            self.ts.expect(":")
            field_ty = self.type_()
            fields.append(FieldDef(field_name, field_ty, field_attrs))
            self.ts.accept(",")
        return StructDef(name, generics, tuple(fields), attrs)

    def enum_def(self, attrs: Tuple[RawSpec, ...]) -> EnumDef:
        self.ts.expect("enum")
        name = self.ts.expect_kind("ident").text
        generics = self.generics()
        self.ts.expect("{")
        variants: List[VariantDef] = []
        while not self.ts.accept("}"):
            variant_attrs = self.attributes()
            variant_name = self.ts.expect_kind("ident").text
            fields: List[Type] = []
            if self.ts.at("("):
                self.ts.expect("(")
                while not self.ts.accept(")"):
                    fields.append(self.type_())
                    self.ts.accept(",")
            variants.append(VariantDef(variant_name, tuple(fields), variant_attrs))
            self.ts.accept(",")
        return EnumDef(name, generics, tuple(variants), attrs)

    def impl_block(self) -> List[FnDef]:
        self.ts.expect("impl")
        self.generics()
        type_name = self.ts.expect_kind("ident").text
        args: List[Type] = []
        if self.ts.at("<"):
            self.ts.expect("<")
            while not self.ts.accept(">"):
                args.append(self.type_())
                self.ts.accept(",")
        self_type = TyName(type_name, tuple(args))
        self.ts.expect("{")
        functions: List[FnDef] = []
        while not self.ts.accept("}"):
            attrs = self.attributes()
            self.ts.accept("pub")
            functions.append(self.function(attrs, self_type, prefix=f"{type_name}::"))
        return functions

    # -- types ------------------------------------------------------------------

    def type_(self) -> Type:
        if self.ts.accept("&"):
            mutable = bool(self.ts.accept("mut"))
            return TyRef(mutable, self.type_())
        if self.ts.accept("("):
            self.ts.expect(")")
            return TyUnit()
        name = self.ts.expect_kind("ident").text if not self.ts.at("Self") else self.ts.next().text
        args: List[Type] = []
        if self.ts.at("<"):
            self.ts.expect("<")
            while not self.ts.accept(">"):
                args.append(self.type_())
                self.ts.accept(",")
        return TyName(name, tuple(args))

    # -- statements ---------------------------------------------------------------

    def block(self) -> Block:
        self.ts.expect("{")
        stmts: List[Stmt] = []
        tail: Optional[Expr] = None
        while not self.ts.accept("}"):
            start = self.ts.peek()
            if self.ts.at("let"):
                stmts.append(self.let_stmt())
                continue
            if self.ts.at("while"):
                stmts.append(self.while_stmt())
                continue
            if self.ts.at("return"):
                self.ts.expect("return")
                value = None if self.ts.at(";") else self.expression()
                self.ts.expect(";")
                stmts.append(ReturnStmt(value, span=self._close(start)))
                continue
            if self.ts.at_kind("ident") and self.ts.peek(1).text == "!":
                stmts.append(self.macro_stmt())
                continue
            expr = self.expression()
            assign_token = self.ts.peek().text
            if assign_token == "=" or assign_token in COMPOUND_ASSIGN:
                self.ts.next()
                value = self.expression()
                self.ts.expect(";")
                op = COMPOUND_ASSIGN.get(assign_token)
                stmts.append(AssignStmt(expr, op, value, span=self._close(start)))
                continue
            if self.ts.accept(";"):
                stmts.append(ExprStmt(expr, span=expr.span))
                continue
            if self.ts.at("}"):
                tail = expr
                continue
            if isinstance(expr, (IfExpr, MatchExpr, BlockExpr)):
                stmts.append(ExprStmt(expr, span=expr.span))
                continue
            token = self.ts.peek()
            raise ParseError(
                f"expected ';' or '}}' after expression, found {token.text!r} (line {token.line})"
            )
        return Block(tuple(stmts), tail)

    def let_stmt(self) -> LetStmt:
        start = self.ts.peek()
        self.ts.expect("let")
        mutable = bool(self.ts.accept("mut"))
        name = self.ts.expect_kind("ident").text
        ty: Optional[Type] = None
        if self.ts.accept(":"):
            ty = self.type_()
        init: Optional[Expr] = None
        if self.ts.accept("="):
            init = self.expression()
        self.ts.expect(";")
        return LetStmt(name, mutable, ty, init, span=self._close(start))

    def while_stmt(self) -> WhileStmt:
        start = self.ts.peek()
        self.ts.expect("while")
        cond = self.expression(no_struct=True)
        invariants: List[RawSpec] = []
        # body_invariant! macros written as the first statements of the loop
        # body are collected by the lowering pass, not here
        body = self.block()
        # Blame the `while cond` head, not the body.
        return WhileStmt(cond, body, tuple(invariants), span=merge_spans(start.span, cond.span))

    def macro_stmt(self) -> MacroStmt:
        start = self.ts.peek()
        name = self.ts.expect_kind("ident").text
        self.ts.expect("!")
        tokens = self._balanced_tokens("(", ")")
        self.ts.accept(";")
        return MacroStmt(name, tuple(tokens), span=self._close(start))

    # -- expressions ------------------------------------------------------------

    def expression(self, no_struct: bool = False) -> Expr:
        return self._or_expr(no_struct)

    def _or_expr(self, no_struct: bool) -> Expr:
        expr = self._and_expr(no_struct)
        while self.ts.at("||"):
            self.ts.next()
            rhs = self._and_expr(no_struct)
            expr = BinaryExpr("||", expr, rhs, span=merge_spans(expr.span, rhs.span))
        return expr

    def _and_expr(self, no_struct: bool) -> Expr:
        expr = self._cmp_expr(no_struct)
        while self.ts.at("&&"):
            self.ts.next()
            rhs = self._cmp_expr(no_struct)
            expr = BinaryExpr("&&", expr, rhs, span=merge_spans(expr.span, rhs.span))
        return expr

    def _cmp_expr(self, no_struct: bool) -> Expr:
        expr = self._add_expr(no_struct)
        while self.ts.peek().text in ("==", "!=", "<", "<=", ">", ">="):
            op = self.ts.next().text
            rhs = self._add_expr(no_struct)
            expr = BinaryExpr(op, expr, rhs, span=merge_spans(expr.span, rhs.span))
        return expr

    def _add_expr(self, no_struct: bool) -> Expr:
        expr = self._mul_expr(no_struct)
        while self.ts.peek().text in ("+", "-") and self.ts.peek().kind == "op":
            op = self.ts.next().text
            rhs = self._mul_expr(no_struct)
            expr = BinaryExpr(op, expr, rhs, span=merge_spans(expr.span, rhs.span))
        return expr

    def _mul_expr(self, no_struct: bool) -> Expr:
        expr = self._cast_expr(no_struct)
        while self.ts.peek().text in ("*", "/", "%") and self.ts.peek().kind == "op":
            op = self.ts.next().text
            rhs = self._cast_expr(no_struct)
            expr = BinaryExpr(op, expr, rhs, span=merge_spans(expr.span, rhs.span))
        return expr

    def _cast_expr(self, no_struct: bool) -> Expr:
        expr = self._unary_expr(no_struct)
        while self.ts.at("as"):
            start = self.ts.peek()
            self.ts.next()
            expr = CastExpr(expr, self.type_(), span=merge_spans(expr.span, self._close(start)))
        return expr

    def _unary_expr(self, no_struct: bool) -> Expr:
        start = self.ts.peek()
        if self.ts.at("-"):
            self.ts.next()
            operand = self._unary_expr(no_struct)
            return UnaryExpr("-", operand, span=merge_spans(start.span, operand.span))
        if self.ts.at("!"):
            self.ts.next()
            operand = self._unary_expr(no_struct)
            return UnaryExpr("!", operand, span=merge_spans(start.span, operand.span))
        if self.ts.at("*"):
            self.ts.next()
            place = self._unary_expr(no_struct)
            return DerefExpr(place, span=merge_spans(start.span, place.span))
        if self.ts.at("&"):
            self.ts.next()
            mutable = bool(self.ts.accept("mut"))
            place = self._unary_expr(no_struct)
            return BorrowExpr(mutable, place, span=merge_spans(start.span, place.span))
        return self._postfix_expr(no_struct)

    def _postfix_expr(self, no_struct: bool) -> Expr:
        expr = self._primary_expr(no_struct)
        while True:
            if self.ts.accept("."):
                name_token = self.ts.peek()
                if name_token.kind == "int":
                    # tuple field access, e.g. pair.0
                    self.ts.next()
                    expr = FieldExpr(
                        expr, name_token.text, span=merge_spans(expr.span, name_token.span)
                    )
                    continue
                name = self.ts.expect_kind("ident").text
                if self.ts.at("("):
                    args = self._call_args()
                    span = merge_spans(expr.span, self.ts.previous().span)
                    expr = MethodCallExpr(expr, name, tuple(args), span=span)
                else:
                    expr = FieldExpr(
                        expr, name, span=merge_spans(expr.span, self.ts.previous().span)
                    )
                continue
            break
        return expr

    def _call_args(self) -> List[Expr]:
        self.ts.expect("(")
        args: List[Expr] = []
        while not self.ts.accept(")"):
            args.append(self.expression())
            self.ts.accept(",")
        return args

    def _primary_expr(self, no_struct: bool) -> Expr:
        token = self.ts.peek()
        if token.kind == "int":
            self.ts.next()
            return IntLit(int(token.text), span=token.span)
        if token.kind == "float":
            self.ts.next()
            return FloatLit(float(token.text), span=token.span)
        if self.ts.at("true"):
            self.ts.next()
            return BoolLit(True, span=token.span)
        if self.ts.at("false"):
            self.ts.next()
            return BoolLit(False, span=token.span)
        if self.ts.at("("):
            self.ts.next()
            expr = self.expression()
            self.ts.expect(")")
            return expr
        if self.ts.at("{"):
            return BlockExpr(self.block())
        if self.ts.at("if"):
            return self.if_expr(no_struct)
        if self.ts.at("match"):
            return self.match_expr()
        if token.kind == "ident" or self.ts.at("self") or self.ts.at("Self"):
            return self._path_expr(no_struct)
        raise ParseError(f"unexpected token {token.text!r} (line {token.line})")

    def if_expr(self, no_struct: bool) -> IfExpr:
        start = self.ts.peek()
        self.ts.expect("if")
        cond = self.expression(no_struct=True)
        then_block = self.block()
        else_block: Optional[Block] = None
        if self.ts.accept("else"):
            if self.ts.at("if"):
                nested = self.if_expr(no_struct)
                else_block = Block((), nested)
            else:
                else_block = self.block()
        # Blame the whole `if cond` head, not the branches.
        return IfExpr(cond, then_block, else_block, span=merge_spans(start.span, cond.span))

    def match_expr(self) -> MatchExpr:
        start = self.ts.peek()
        self.ts.expect("match")
        scrutinee = self.expression(no_struct=True)
        self.ts.expect("{")
        arms: List[MatchArm] = []
        while not self.ts.accept("}"):
            variant, bindings = self._pattern()
            self.ts.expect("=>")
            if self.ts.at("{"):
                body = self.block()
            else:
                body = Block((), self.expression())
            self.ts.accept(",")
            arms.append(MatchArm(variant, tuple(bindings), body))
        return MatchExpr(
            scrutinee, tuple(arms), span=merge_spans(start.span, scrutinee.span)
        )

    def _pattern(self) -> Tuple[str, List[str]]:
        if self.ts.at("_"):
            self.ts.next()
            return "_", []
        parts = [self.ts.expect_kind("ident").text]
        while self.ts.accept("::"):
            parts.append(self.ts.expect_kind("ident").text)
        variant = "::".join(parts)
        bindings: List[str] = []
        if self.ts.at("("):
            self.ts.expect("(")
            while not self.ts.accept(")"):
                if self.ts.at("_"):
                    self.ts.next()
                    bindings.append("_")
                else:
                    bindings.append(self.ts.expect_kind("ident").text)
                self.ts.accept(",")
        return variant, bindings

    def _path_expr(self, no_struct: bool) -> Expr:
        start = self.ts.peek()
        parts = [self.ts.next().text]
        while self.ts.accept("::"):
            parts.append(self.ts.expect_kind("ident").text)
        path = "::".join(parts)
        if self.ts.at("("):
            args = self._call_args()
            return CallExpr(path, tuple(args), span=self._close(start))
        if self.ts.at("{") and not no_struct and len(parts) == 1 and parts[0][0].isupper():
            # struct literal: Name { field: expr, ... }
            self.ts.expect("{")
            fields: List[Tuple[str, Expr]] = []
            while not self.ts.accept("}"):
                field_name = self.ts.expect_kind("ident").text
                self.ts.expect(":")
                fields.append((field_name, self.expression()))
                self.ts.accept(",")
            return StructLit(path, tuple(fields), span=self._close(start))
        if len(parts) > 1:
            # path used as a value: unit enum variant such as List::Nil
            return CallExpr(path, (), span=self._close(start))
        return VarExpr(path, span=start.span)
