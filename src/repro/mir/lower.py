"""Lowering of MiniRust ASTs to MIR.

The lowering is the usual three-address translation: expressions are
flattened into temporaries, control flow becomes explicit basic blocks, and
``while`` loops produce a dedicated loop-head block (marked as such so the
refinement checker knows where to synthesise invariants and the baseline
knows where to look for ``body_invariant!`` annotations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.lang import ast
from repro.lang.span import Span
from repro.mir.ir import (
    AggregateRv,
    AssignStatement,
    BinRv,
    Block,
    Body,
    CallTerm,
    ConstOperand,
    Goto,
    Operand,
    Place,
    PlaceOperand,
    RefRv,
    ReturnTerm,
    SwitchBool,
    SwitchVariant,
    UnRv,
    UseRv,
)


class LoweringError(Exception):
    """Raised when a construct outside the supported fragment is lowered."""


RETURN_LOCAL = "__ret"


def lower_function(fn_def: ast.FnDef) -> Body:
    """Lower one function definition to MIR."""
    if fn_def.body is None:
        raise LoweringError(f"function {fn_def.name} has no body to lower")
    lowerer = _Lowerer(fn_def)
    return lowerer.run()


@dataclass
class _LoopContext:
    head: int
    exit: int


class _Lowerer:
    def __init__(self, fn_def: ast.FnDef) -> None:
        self.fn_def = fn_def
        self.body = Body(
            name=fn_def.name,
            fn_def=fn_def,
            params=[param.name for param in fn_def.params],
            local_types={param.name: param.ty for param in fn_def.params},
        )
        self.body.local_types[RETURN_LOCAL] = fn_def.ret
        self._temp_counter = 0
        self._loop_stack: List[_LoopContext] = []
        # The span of the innermost surface construct currently being
        # lowered; stamped onto every emitted statement and terminator so
        # the checker can blame the exact source expression.
        self._span: Optional[Span] = None

    # -- block management ------------------------------------------------------

    def new_block(self) -> Block:
        block = Block(block_id=len(self.body.blocks))
        self.body.blocks.append(block)
        return block

    def fresh_temp(self, prefix: str = "tmp") -> str:
        self._temp_counter += 1
        name = f"__{prefix}{self._temp_counter}"
        self.body.local_types.setdefault(name, None)
        return name

    def emit(self, block: Block, place: Place, rvalue, span: Optional[Span] = None) -> None:
        block.statements.append(AssignStatement(place, rvalue, span=span or self._span))

    # -- entry point -------------------------------------------------------------

    def run(self) -> Body:
        entry = self.new_block()
        assert entry.block_id == Body.ENTRY
        end_block, tail = self.lower_block(self.fn_def.body, entry)
        if end_block.terminator is None:
            operand = tail if tail is not None else ConstOperand(None)
            # Blame the whole tail expression when there is one; otherwise
            # fall back to the last lowered expression.
            tail_expr = self.fn_def.body.tail
            span = getattr(tail_expr, "span", None) or self._span
            end_block.terminator = ReturnTerm(operand, span=span)
        return self.body

    # -- statements ----------------------------------------------------------------

    def lower_block(self, block_ast: ast.Block, current: Block) -> Tuple[Block, Optional[Operand]]:
        for stmt in block_ast.stmts:
            current = self.lower_stmt(stmt, current)
            if current.terminator is not None:
                # unreachable code after return; stop lowering this block
                return current, None
        tail: Optional[Operand] = None
        if block_ast.tail is not None:
            current, tail = self.lower_expr(block_ast.tail, current)
        return current, tail

    def lower_stmt(self, stmt: ast.Stmt, current: Block) -> Block:
        if stmt.span is not None:
            self._span = stmt.span
        if isinstance(stmt, ast.LetStmt):
            self.body.local_types.setdefault(stmt.name, stmt.ty)
            if stmt.ty is not None and self.body.local_types.get(stmt.name) is None:
                self.body.local_types[stmt.name] = stmt.ty
            if stmt.init is not None:
                current = self.lower_into(Place(stmt.name), stmt.init, current)
            return current
        if isinstance(stmt, ast.AssignStmt):
            current, place = self.lower_place_in(stmt.place, current)
            if stmt.op is None:
                return self.lower_into(place, stmt.value, current)
            current, rhs = self.lower_expr(stmt.value, current)
            self.emit(current, place, BinRv(stmt.op, PlaceOperand(place), rhs), span=stmt.span)
            return current
        if isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.IfExpr):
                current, _ = self.lower_if(stmt.expr, current, want_value=False)
                return current
            if isinstance(stmt.expr, ast.MatchExpr):
                current, _ = self.lower_match(stmt.expr, current, want_value=False)
                return current
            current, _ = self.lower_expr(stmt.expr, current)
            return current
        if isinstance(stmt, ast.WhileStmt):
            return self.lower_while(stmt, current)
        if isinstance(stmt, ast.ReturnStmt):
            operand: Operand = ConstOperand(None)
            if stmt.value is not None:
                current, operand = self.lower_expr(stmt.value, current)
            current.terminator = ReturnTerm(operand, span=stmt.span)
            return current
        if isinstance(stmt, ast.MacroStmt):
            # body_invariant! is re-attached to the loop head by lower_while;
            # assert!/debug_assert! and friends are no-ops for verification
            # (Flux proves them from types; the baseline re-checks them).
            return current
        raise LoweringError(f"cannot lower statement {stmt!r}")

    def lower_while(self, stmt: ast.WhileStmt, current: Block) -> Block:
        head = self.new_block()
        head.is_loop_head = True
        current.terminator = Goto(head.block_id, span=stmt.span)

        body_entry = self.new_block()
        exit_block = self.new_block()

        cond_block, cond_operand = self.lower_expr(stmt.cond, head)
        cond_block.terminator = SwitchBool(
            cond_operand,
            body_entry.block_id,
            exit_block.block_id,
            span=stmt.cond.span or stmt.span,
        )

        # collect body_invariant! macros written at the top of the loop body
        invariants = [
            macro.tokens
            for macro in stmt.body.stmts
            if isinstance(macro, ast.MacroStmt) and macro.name == "body_invariant"
        ]
        head.invariants.extend(invariants)

        self._loop_stack.append(_LoopContext(head.block_id, exit_block.block_id))
        body_end, _ = self.lower_block(stmt.body, body_entry)
        self._loop_stack.pop()
        if body_end.terminator is None:
            body_end.terminator = Goto(head.block_id)
        return exit_block

    # -- expressions -----------------------------------------------------------------

    def lower_into(self, place: Place, expr: ast.Expr, current: Block) -> Block:
        """Lower ``expr`` directly into ``place`` (avoids temporaries for calls)."""
        span = expr.span or self._span
        if expr.span is not None:
            self._span = expr.span
        if isinstance(expr, (ast.CallExpr, ast.MethodCallExpr)):
            return self.lower_call(expr, current, place)
        if isinstance(expr, ast.IfExpr):
            current, operand = self.lower_if(expr, current, want_value=True)
            self.emit(current, place, UseRv(operand), span=span)
            return current
        if isinstance(expr, ast.MatchExpr):
            current, operand = self.lower_match(expr, current, want_value=True)
            self.emit(current, place, UseRv(operand), span=span)
            return current
        if isinstance(expr, ast.BorrowExpr):
            current, target = self.lower_place_in(expr.place, current)
            self.emit(current, place, RefRv(expr.mutable, target), span=span)
            return current
        if isinstance(expr, ast.StructLit):
            current, operands = self.lower_operands([value for _, value in expr.fields], current)
            names = tuple(name for name, _ in expr.fields)
            self.emit(current, place, AggregateRv(expr.name, None, tuple(operands), names), span=span)
            return current
        if isinstance(expr, ast.BinaryExpr):
            current, lhs = self.lower_expr(expr.lhs, current)
            current, rhs = self.lower_expr(expr.rhs, current)
            self.emit(current, place, BinRv(expr.op, lhs, rhs), span=span)
            return current
        if isinstance(expr, ast.UnaryExpr):
            current, operand = self.lower_expr(expr.operand, current)
            self.emit(current, place, UnRv(expr.op, operand), span=span)
            return current
        current, operand = self.lower_expr(expr, current)
        self.emit(current, place, UseRv(operand), span=span)
        return current

    def lower_expr(self, expr: ast.Expr, current: Block) -> Tuple[Block, Operand]:
        if expr.span is not None:
            self._span = expr.span
        if isinstance(expr, ast.IntLit):
            return current, ConstOperand(expr.value)
        if isinstance(expr, ast.FloatLit):
            return current, ConstOperand(expr.value)
        if isinstance(expr, ast.BoolLit):
            return current, ConstOperand(expr.value)
        if isinstance(expr, (ast.VarExpr, ast.DerefExpr, ast.FieldExpr)):
            current, place = self.lower_place_in(expr, current)
            return current, PlaceOperand(place)
        if isinstance(expr, ast.CastExpr):
            return self.lower_expr(expr.operand, current)
        if isinstance(expr, ast.BlockExpr):
            block_end, tail = self.lower_block(expr.block, current)
            return block_end, tail if tail is not None else ConstOperand(None)
        temp = self.fresh_temp()
        place = Place(temp)
        current = self.lower_into(place, expr, current)
        return current, PlaceOperand(place)

    def lower_operands(
        self, exprs: List[ast.Expr], current: Block
    ) -> Tuple[Block, List[Operand]]:
        operands: List[Operand] = []
        for expr in exprs:
            current, operand = self.lower_expr(expr, current)
            operands.append(operand)
        return current, operands

    def lower_place_in(
        self, expr: ast.Expr, current: Optional[Block]
    ) -> Tuple[Optional[Block], Place]:
        if isinstance(expr, ast.VarExpr):
            self.body.local_types.setdefault(expr.name, None)
            return current, Place(expr.name)
        if isinstance(expr, ast.DerefExpr):
            block, place = self.lower_place_in(expr.place, current)
            return block, place.deref()
        if isinstance(expr, ast.FieldExpr):
            block, place = self.lower_place_in(expr.receiver, current)
            return block, place.field(expr.field)
        if current is not None:
            # Not a syntactic place (e.g. `*v.get(0)`): evaluate into a
            # temporary and use that as the place.
            block, operand = self.lower_expr(expr, current)
            if isinstance(operand, PlaceOperand):
                return block, operand.place
            temp = Place(self.fresh_temp("place"))
            self.emit(block, temp, UseRv(operand))
            return block, temp
        raise LoweringError(f"expression {expr!r} is not a place")

    def lower_call(
        self, expr: ast.Expr, current: Block, destination: Optional[Place]
    ) -> Block:
        if destination is None:
            destination = Place(self.fresh_temp("call"))
        if isinstance(expr, ast.CallExpr):
            func = expr.func
            current, operands = self.lower_operands(list(expr.args), current)
        elif isinstance(expr, ast.MethodCallExpr):
            func = f"method:{expr.method}"
            current, receiver = self.lower_expr(expr.receiver, current)
            current, rest = self.lower_operands(list(expr.args), current)
            operands = [receiver] + rest
        else:
            raise LoweringError(f"not a call expression: {expr!r}")
        successor = self.new_block()
        current.terminator = CallTerm(
            destination, func, operands, successor.block_id, span=expr.span or self._span
        )
        return successor

    def lower_if(
        self, expr: ast.IfExpr, current: Block, want_value: bool
    ) -> Tuple[Block, Operand]:
        current, cond = self.lower_expr(expr.cond, current)
        then_block = self.new_block()
        else_block = self.new_block()
        join_block = self.new_block()
        current.terminator = SwitchBool(
            cond, then_block.block_id, else_block.block_id, span=expr.cond.span or expr.span
        )

        result_local = self.fresh_temp("if") if want_value else None

        then_end, then_tail = self.lower_block(expr.then_block, then_block)
        if then_end.terminator is None:
            if result_local is not None:
                value = then_tail if then_tail is not None else ConstOperand(None)
                self.emit(then_end, Place(result_local), UseRv(value))
            then_end.terminator = Goto(join_block.block_id)

        if expr.else_block is not None:
            else_end, else_tail = self.lower_block(expr.else_block, else_block)
        else:
            else_end, else_tail = else_block, None
        if else_end.terminator is None:
            if result_local is not None:
                value = else_tail if else_tail is not None else ConstOperand(None)
                self.emit(else_end, Place(result_local), UseRv(value))
            else_end.terminator = Goto(join_block.block_id)

        operand: Operand = (
            PlaceOperand(Place(result_local)) if result_local is not None else ConstOperand(None)
        )
        return join_block, operand

    def lower_match(
        self, expr: ast.MatchExpr, current: Block, want_value: bool
    ) -> Tuple[Block, Operand]:
        current, scrutinee = self.lower_expr(expr.scrutinee, current)
        if not isinstance(scrutinee, PlaceOperand):
            temp = Place(self.fresh_temp("match"))
            self.emit(current, temp, UseRv(scrutinee))
            scrutinee = PlaceOperand(temp)

        join_block = self.new_block()
        result_local = self.fresh_temp("matchval") if want_value else None
        arms: List[Tuple[str, Tuple[str, ...], int]] = []
        enum_name = ""
        for arm in expr.arms:
            arm_block = self.new_block()
            bindings: List[str] = []
            for binding in arm.bindings:
                if binding == "_":
                    bindings.append("_")
                else:
                    self.body.local_types.setdefault(binding, None)
                    bindings.append(binding)
            variant = arm.variant
            if "::" in variant:
                enum_name = variant.split("::")[0]
            arms.append((variant.split("::")[-1] if variant != "_" else "_", tuple(bindings), arm_block.block_id))
            arm_end, arm_tail = self.lower_block(arm.body, arm_block)
            if arm_end.terminator is None:
                if result_local is not None:
                    value = arm_tail if arm_tail is not None else ConstOperand(None)
                    self.emit(arm_end, Place(result_local), UseRv(value))
                arm_end.terminator = Goto(join_block.block_id)

        current.terminator = SwitchVariant(
            scrutinee.place, enum_name, arms, span=expr.span or self._span
        )
        operand: Operand = (
            PlaceOperand(Place(result_local)) if result_local is not None else ConstOperand(None)
        )
        return join_block, operand
