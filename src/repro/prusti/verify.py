"""Verification-condition generation and checking for the Prusti-style baseline.

The generator walks the surface AST of each function in weakest-precondition
style:

* preconditions are assumed; postconditions (with ``old()`` resolved against
  the entry state) are asserted at returns;
* loops are cut at their head: the ``body_invariant!`` annotations must hold
  on entry, all variables assigned in the loop are havocked, the invariants
  are assumed, the body re-establishes them, and the code after the loop
  resumes from the havocked state with the negated guard;
* every vector access emits a bounds obligation; vector mutation introduces a
  fresh sequence constrained by the (universally quantified) axioms of
  :mod:`repro.prusti.model`;
* calls to other specified functions use their contracts.

Obligations are discharged by :func:`repro.smt.is_valid`, whose quantifier
instantiation accounts for the bulk of the running time — the effect the
paper's evaluation measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang import ast, parse_program
from repro.lang.specs import parse_spec_expr
from repro.logic.expr import (
    binop,
    unary,
    App,
    BinOp,
    BoolConst,
    Expr,
    IntConst,
    TRUE,
    UnaryOp,
    CMP_OPS,
    Ite,
    Var,
    eq,
    ge,
    implies,
    lt,
    not_,
)
from repro.logic.sorts import BOOL, INT
from repro.logic.subst import substitute
from repro.smt import is_valid
from repro.prusti.model import (
    axioms_havoc,
    axioms_new,
    axioms_push,
    axioms_store,
    axioms_swap,
    fresh_symbol,
    seq_len,
    seq_lookup,
)


class PrustiError(Exception):
    """Raised for constructs the baseline cannot encode."""


def _bool_valued(expr: Optional[Expr]) -> bool:
    """Syntactic check that a symbolic value is boolean-sorted."""
    if isinstance(expr, BoolConst):
        return True
    if isinstance(expr, Var):
        return expr.sort == BOOL
    if isinstance(expr, UnaryOp):
        return expr.op == "!"
    if isinstance(expr, BinOp):
        return expr.op in CMP_OPS or expr.op in ("&&", "||", "=>", "<=>")
    if isinstance(expr, Ite):
        return _bool_valued(expr.then)
    return False


def _joined_sort(then_value: Optional[Expr], else_value: Optional[Expr]):
    """Sort for the fresh symbol joining two branch values.

    A join of boolean branch results must itself be bool-sorted: the joined
    symbol flows into boolean positions (e.g. an ``if`` expression used as a
    condition), and an int-sorted stand-in makes the SMT layer reject the
    obligation outright.
    """
    if _bool_valued(then_value) or _bool_valued(else_value):
        return BOOL
    return INT


@dataclass
class Obligation:
    hypotheses: List[Expr]
    goal: Expr
    tag: str


@dataclass
class PrustiFunctionResult:
    name: str
    ok: bool
    failed: List[str] = field(default_factory=list)
    num_obligations: int = 0
    spec_lines: int = 0
    invariant_lines: int = 0
    time: float = 0.0


@dataclass
class PrustiResult:
    functions: List[PrustiFunctionResult] = field(default_factory=list)
    time: float = 0.0

    @property
    def ok(self) -> bool:
        return all(fn.ok for fn in self.functions)

    def function(self, name: str) -> PrustiFunctionResult:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)


@dataclass
class Contract:
    requires: List[Expr]
    ensures: List[Expr]
    params: List[str]
    trusted: bool = False


def _contract_of(fn: ast.FnDef) -> Contract:
    requires: List[Expr] = []
    ensures: List[Expr] = []
    trusted = False
    for attr in fn.attrs:
        if attr.name == "requires":
            requires.append(parse_spec_expr(attr.tokens))
        elif attr.name == "ensures":
            ensures.append(parse_spec_expr(attr.tokens))
        elif attr.name in ("trusted", "pure"):
            trusted = True
    return Contract(requires, ensures, [p.name for p in fn.params], trusted)


VEC_TYPES = {"RVec", "RMat"}


def _is_vec_type(ty: Optional[ast.Type]) -> bool:
    if isinstance(ty, ast.TyRef):
        return _is_vec_type(ty.inner)
    return isinstance(ty, ast.TyName) and ty.name in VEC_TYPES


@dataclass
class SymState:
    env: Dict[str, Expr]
    path: List[Expr]

    def copy(self) -> "SymState":
        return SymState(dict(self.env), list(self.path))

    def assume(self, fact: Expr) -> None:
        if fact != TRUE:
            self.path.append(fact)


class _FunctionVerifier:
    def __init__(self, fn: ast.FnDef, contracts: Dict[str, Contract]) -> None:
        self.fn = fn
        self.contracts = contracts
        self.obligations: List[Obligation] = []
        self.vec_locals: Set[str] = set()

    # -- spec evaluation -------------------------------------------------------

    def run(self) -> List[Obligation]:
        contract = self.contracts[self.fn.name]
        state = SymState({}, [])
        for param in self.fn.params:
            symbol = fresh_symbol(param.name)
            state.env[param.name] = symbol
            if _is_vec_type(param.ty):
                self.vec_locals.add(param.name)
                state.assume(ge(seq_len(symbol), 0))
        self.pre_state = state.copy()
        for pre in contract.requires:
            state.assume(self.eval_spec(pre, state))
        result = self.exec_block(self.fn.body, state)
        if result is not None:
            final_state, value = result
            self.check_post(final_state, value)
        return self.obligations

    def check_post(self, state: SymState, value: Optional[Expr]) -> None:
        contract = self.contracts[self.fn.name]
        for post in contract.ensures:
            resolved = self.eval_spec(post, state, result=value)
            self.assert_(state, resolved, "postcondition")

    def assert_(self, state: SymState, goal: Expr, tag: str) -> None:
        self.obligations.append(Obligation(list(state.path), goal, tag))

    # -- expression evaluation ----------------------------------------------------

    def eval_spec(self, spec: Expr, state: SymState, result: Optional[Expr] = None) -> Expr:
        """Interpret a specification expression against a symbolic state."""
        if isinstance(spec, Var):
            if spec.name == "result" and result is not None:
                return result
            return state.env.get(spec.name, spec)
        if isinstance(spec, (IntConst, BoolConst)):
            return spec
        if isinstance(spec, BinOp):
            return binop(
                spec.op,
                self.eval_spec(spec.lhs, state, result),
                self.eval_spec(spec.rhs, state, result),
            )
        if isinstance(spec, UnaryOp):
            return unary(spec.op, self.eval_spec(spec.operand, state, result))
        if isinstance(spec, App):
            if spec.func == "old":
                return self.eval_spec(spec.args[0], self.pre_state, result)
            if spec.func == "len":
                return seq_len(self.eval_spec(spec.args[0], state, result))
            if spec.func == "lookup":
                return seq_lookup(
                    self.eval_spec(spec.args[0], state, result),
                    self.eval_spec(spec.args[1], state, result),
                )
            return App(
                spec.func,
                tuple(self.eval_spec(a, state, result) for a in spec.args),
                spec.sort,
            )
        from repro.logic.expr import Forall

        if isinstance(spec, Forall):
            shadowed = {name for name, _ in spec.binders}
            inner_state = state.copy()
            for name in shadowed:
                inner_state.env.pop(name, None)
            return Forall(spec.binders, self.eval_spec(spec.body, inner_state, result))
        return spec

    def eval_expr(self, expr: ast.Expr, state: SymState) -> Expr:
        if isinstance(expr, ast.IntLit):
            return IntConst(expr.value)
        if isinstance(expr, ast.FloatLit):
            return fresh_symbol("flt")
        if isinstance(expr, ast.BoolLit):
            return BoolConst(expr.value)
        if isinstance(expr, ast.VarExpr):
            return state.env.get(expr.name, fresh_symbol(expr.name))
        if isinstance(expr, ast.DerefExpr):
            return self.eval_expr(expr.place, state)
        if isinstance(expr, ast.BorrowExpr):
            return self.eval_expr(expr.place, state)
        if isinstance(expr, ast.CastExpr):
            return self.eval_expr(expr.operand, state)
        if isinstance(expr, ast.UnaryExpr):
            operand = self.eval_expr(expr.operand, state)
            if expr.op == "!":
                return not_(operand)
            return unary("-", operand)
        if isinstance(expr, ast.BinaryExpr):
            lhs = self.eval_expr(expr.lhs, state)
            rhs = self.eval_expr(expr.rhs, state)
            op = {"==": "=", "!=": "!="}.get(expr.op, expr.op)
            if expr.op in ("/", "%"):
                return self._division(state, lhs, rhs, expr.op)
            if expr.op == "*" and not (
                isinstance(lhs, IntConst) or isinstance(rhs, IntConst)
            ):
                return fresh_symbol("nonlin")
            return binop(op, lhs, rhs)
        if isinstance(expr, ast.FieldExpr):
            receiver = self.eval_expr(expr.receiver, state)
            return App(f"field_{expr.field}", (receiver,), INT)
        if isinstance(expr, ast.MethodCallExpr):
            return self.eval_method(expr, state)
        if isinstance(expr, ast.CallExpr):
            return self.eval_call(expr, state)
        if isinstance(expr, ast.IfExpr):
            return self.eval_if(expr, state)
        if isinstance(expr, ast.BlockExpr):
            result = self.exec_block(expr.block, state)
            if result is None:
                return fresh_symbol("divergent")
            _, value = result
            return value if value is not None else fresh_symbol("unit")
        raise PrustiError(f"cannot encode expression {expr!r}")

    def _division(self, state: SymState, lhs: Expr, rhs: Expr, op: str) -> Expr:
        if isinstance(rhs, IntConst) and rhs.value > 0:
            result = fresh_symbol("div" if op == "/" else "mod")
            if op == "/":
                state.assume(binop("<=", binop("*", rhs, result), lhs))
                state.assume(lt(lhs, binop("+", binop("*", rhs, result), rhs)))
                state.assume(ge(result, 0) if True else TRUE)
            else:
                state.assume(ge(result, 0))
                state.assume(lt(result, rhs))
            return result
        return fresh_symbol("div")

    # -- vector and call modelling --------------------------------------------------

    def _receiver_name(self, expr: ast.Expr) -> Optional[str]:
        if isinstance(expr, ast.VarExpr):
            return expr.name
        if isinstance(expr, (ast.DerefExpr,)):
            return self._receiver_name(expr.place)
        if isinstance(expr, ast.BorrowExpr):
            return self._receiver_name(expr.place)
        return None

    def eval_method(self, expr: ast.MethodCallExpr, state: SymState) -> Expr:
        method = expr.method
        receiver_name = self._receiver_name(expr.receiver)
        receiver = self.eval_expr(expr.receiver, state)
        args = [self.eval_expr(a, state) for a in expr.args]

        if method == "len":
            return seq_len(receiver)
        if method in ("lookup", "get", "get_mut", "index"):
            # Indices are usize, hence non-negative by the Rust type system
            # (Prusti gets this for free as well); the obligation is the
            # upper bound.
            index = args[0]
            state.assume(ge(index, 0))
            self.assert_(state, lt(index, seq_len(receiver)),
                         f"vector access in {self.fn.name}")
            return seq_lookup(receiver, index)
        if method == "push":
            new = self._mutate_vector(state, receiver_name, receiver)
            for axiom in axioms_push(receiver, new, args[0]):
                state.assume(axiom)
            return fresh_symbol("unit")
        if method == "store":
            index = args[0]
            state.assume(ge(index, 0))
            self.assert_(state, lt(index, seq_len(receiver)),
                         f"vector store in {self.fn.name}")
            new = self._mutate_vector(state, receiver_name, receiver)
            for axiom in axioms_store(receiver, new, index, args[1]):
                state.assume(axiom)
            return fresh_symbol("unit")
        if method == "swap":
            for index in args[:2]:
                state.assume(ge(index, 0))
                self.assert_(state, lt(index, seq_len(receiver)),
                             f"vector swap in {self.fn.name}")
            new = self._mutate_vector(state, receiver_name, receiver)
            for axiom in axioms_swap(receiver, new, args[0], args[1]):
                state.assume(axiom)
            return fresh_symbol("unit")
        if method == "is_empty":
            return binop("=", seq_len(receiver), IntConst(0))
        # user-defined method: resolve by suffix against known contracts
        qualified = [name for name in self.contracts if name.endswith(f"::{method}")]
        if len(qualified) == 1:
            return self._apply_contract(qualified[0], [expr.receiver] + list(expr.args),
                                        [receiver] + args, state)
        raise PrustiError(f"unknown method {method!r} in baseline encoding")

    def _mutate_vector(self, state: SymState, receiver_name: Optional[str], receiver: Expr) -> Expr:
        new = fresh_symbol(receiver_name or "vec")
        if receiver_name is not None:
            state.env[receiver_name] = new
            self.vec_locals.add(receiver_name)
        return new

    def eval_call(self, expr: ast.CallExpr, state: SymState) -> Expr:
        func = expr.func
        args_ast = list(expr.args)
        args = [self.eval_expr(a, state) for a in args_ast]
        if func in ("RVec::new", "RMat::new") and not args:
            symbol = fresh_symbol("vec")
            for axiom in axioms_new(symbol):
                state.assume(axiom)
            return symbol
        if func in self.contracts:
            return self._apply_contract(func, args_ast, args, state)
        raise PrustiError(f"call to unspecified function {func!r}")

    def _apply_contract(
        self,
        name: str,
        args_ast: Sequence[ast.Expr],
        args: Sequence[Expr],
        state: SymState,
    ) -> Expr:
        contract = self.contracts[name]
        mapping = dict(zip(contract.params, args))
        for pre in contract.requires:
            resolved = substitute(self.eval_spec(pre, SymState(dict(mapping), []), None), {})
            self.assert_(state, resolved, f"precondition of {name}")
        pre_values = dict(mapping)
        # havoc mutable arguments (anything passed by &mut or a vector receiver)
        for ast_arg, param in zip(args_ast, contract.params):
            target = self._receiver_name(ast_arg)
            mutable = isinstance(ast_arg, ast.BorrowExpr) and ast_arg.mutable
            if isinstance(ast_arg, ast.VarExpr) and ast_arg.name in self.vec_locals:
                mutable = True
            if mutable and target is not None:
                new = fresh_symbol(target)
                state.env[target] = new
                mapping[param] = new
                if target in self.vec_locals:
                    for axiom in axioms_havoc(new):
                        state.assume(axiom)
        result = fresh_symbol("ret")
        post_state = SymState(dict(mapping), [])
        for post in contract.ensures:
            resolved = self._resolve_post(post, post_state, pre_values, result)
            state.assume(resolved)
        return result

    def _resolve_post(
        self, post: Expr, post_state: SymState, pre_values: Dict[str, Expr], result: Expr
    ) -> Expr:
        saved = self.pre_state
        self.pre_state = SymState(dict(pre_values), [])
        try:
            return self.eval_spec(post, post_state, result=result)
        finally:
            self.pre_state = saved

    def eval_if(self, expr: ast.IfExpr, state: SymState) -> Expr:
        condition = self.eval_expr(expr.cond, state)
        then_state = state.copy()
        then_state.assume(condition)
        then_result = self.exec_block(expr.then_block, then_state)
        else_state = state.copy()
        else_state.assume(not_(condition))
        if expr.else_block is not None:
            else_result = self.exec_block(expr.else_block, else_state)
        else:
            else_result = (else_state, None)
        return self._merge(state, condition, then_result, else_result)

    def _merge(
        self,
        state: SymState,
        condition: Expr,
        then_result: Optional[Tuple[SymState, Optional[Expr]]],
        else_result: Optional[Tuple[SymState, Optional[Expr]]],
    ) -> Expr:
        if then_result is None and else_result is None:
            return fresh_symbol("divergent")
        if then_result is None:
            state.env.update(else_result[0].env)
            state.path[:] = else_result[0].path
            return else_result[1] if else_result[1] is not None else fresh_symbol("unit")
        if else_result is None:
            state.env.update(then_result[0].env)
            state.path[:] = then_result[0].path
            return then_result[1] if then_result[1] is not None else fresh_symbol("unit")
        then_state, then_value = then_result
        else_state, else_value = else_result
        merged_env: Dict[str, Expr] = {}
        for name in set(then_state.env) | set(else_state.env):
            then_v = then_state.env.get(name)
            else_v = else_state.env.get(name)
            if then_v == else_v:
                merged_env[name] = then_v
            else:
                joined = fresh_symbol(name, _joined_sort(then_v, else_v))
                if then_v is not None:
                    state.assume(implies(condition, eq(joined, then_v)))
                if else_v is not None:
                    state.assume(implies(not_(condition), eq(joined, else_v)))
                merged_env[name] = joined
        state.env.update(merged_env)
        # path facts added inside the branches stay conditional
        for fact in then_state.path[len(state.path):]:
            state.assume(implies(condition, fact))
        for fact in else_state.path[len(state.path):]:
            state.assume(implies(not_(condition), fact))
        if then_value is None and else_value is None:
            return fresh_symbol("unit")
        joined_value = fresh_symbol("ifval", _joined_sort(then_value, else_value))
        if then_value is not None:
            state.assume(implies(condition, eq(joined_value, then_value)))
        if else_value is not None:
            state.assume(implies(not_(condition), eq(joined_value, else_value)))
        return joined_value

    # -- statements ---------------------------------------------------------------------

    def exec_block(self, block: ast.Block, state: SymState) -> Optional[Tuple[SymState, Optional[Expr]]]:
        for stmt in block.stmts:
            alive = self.exec_stmt(stmt, state)
            if not alive:
                return None
        value: Optional[Expr] = None
        if block.tail is not None:
            value = self.eval_expr(block.tail, state)
        return state, value

    def exec_stmt(self, stmt: ast.Stmt, state: SymState) -> bool:
        if isinstance(stmt, ast.LetStmt):
            if stmt.init is not None:
                value = self.eval_expr(stmt.init, state)
                state.env[stmt.name] = value
                if _is_vec_type(stmt.ty) or isinstance(stmt.init, ast.CallExpr) and stmt.init.func.endswith("::new"):
                    self.vec_locals.add(stmt.name)
            return True
        if isinstance(stmt, ast.AssignStmt):
            target = self._receiver_name(stmt.place)
            value = self.eval_expr(stmt.value, state)
            if target is None:
                raise PrustiError(f"cannot encode assignment to {stmt.place!r}")
            if stmt.op is not None:
                value = binop(stmt.op, state.env.get(target, fresh_symbol(target)), value)
            state.env[target] = value
            return True
        if isinstance(stmt, ast.ExprStmt):
            self.eval_expr(stmt.expr, state) if not isinstance(stmt.expr, ast.IfExpr) else self.eval_if(stmt.expr, state)
            return True
        if isinstance(stmt, ast.ReturnStmt):
            value = self.eval_expr(stmt.value, state) if stmt.value is not None else None
            self.check_post(state, value)
            return False
        if isinstance(stmt, ast.MacroStmt):
            if stmt.name in ("assert", "debug_assert"):
                goal = self.eval_spec(parse_spec_expr(stmt.tokens), state)
                self.assert_(state, goal, f"assert! in {self.fn.name}")
            return True
        if isinstance(stmt, ast.WhileStmt):
            self.exec_while(stmt, state)
            return True
        raise PrustiError(f"cannot encode statement {stmt!r}")

    def exec_while(self, stmt: ast.WhileStmt, state: SymState) -> None:
        invariants = [
            parse_spec_expr(macro.tokens)
            for macro in stmt.body.stmts
            if isinstance(macro, ast.MacroStmt) and macro.name == "body_invariant"
        ]
        # 1. establish the invariants on entry
        for index, invariant in enumerate(invariants):
            self.assert_(state, self.eval_spec(invariant, state),
                         f"loop invariant {index} on entry ({self.fn.name})")
        # 2. havoc everything the loop may assign
        assigned = _assigned_vars(stmt.body)
        for name in assigned:
            fresh = fresh_symbol(name)
            state.env[name] = fresh
            if name in self.vec_locals:
                for axiom in axioms_havoc(fresh):
                    state.assume(axiom)
        # 3. assume the invariants
        for invariant in invariants:
            state.assume(self.eval_spec(invariant, state))
        guard = self.eval_expr(stmt.cond, state)
        # 4. the body must preserve the invariants
        body_state = state.copy()
        body_state.assume(guard)
        result = self.exec_block(stmt.body, body_state)
        if result is not None:
            end_state, _ = result
            for index, invariant in enumerate(invariants):
                self.assert_(end_state, self.eval_spec(invariant, end_state),
                             f"loop invariant {index} preserved ({self.fn.name})")
        # 5. continue after the loop with the negated guard
        state.assume(not_(guard))


def _assigned_vars(block: ast.Block) -> Set[str]:
    assigned: Set[str] = set()

    def visit_block(b: ast.Block) -> None:
        for stmt in b.stmts:
            visit_stmt(stmt)
        if b.tail is not None:
            visit_expr(b.tail)

    def visit_stmt(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.LetStmt):
            assigned.add(stmt.name)
            if stmt.init is not None:
                visit_expr(stmt.init)
        elif isinstance(stmt, ast.AssignStmt):
            target = stmt.place
            while isinstance(target, (ast.DerefExpr,)):
                target = target.place
            while isinstance(target, ast.FieldExpr):
                target = target.receiver
            if isinstance(target, ast.VarExpr):
                assigned.add(target.name)
            visit_expr(stmt.value)
        elif isinstance(stmt, ast.ExprStmt):
            visit_expr(stmt.expr)
        elif isinstance(stmt, ast.WhileStmt):
            visit_expr(stmt.cond)
            visit_block(stmt.body)
        elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
            visit_expr(stmt.value)

    def visit_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.MethodCallExpr):
            # mutating vector methods and &mut receivers count as assignments
            receiver = expr.receiver
            while isinstance(receiver, (ast.DerefExpr, ast.BorrowExpr)):
                receiver = receiver.place
            if isinstance(receiver, ast.VarExpr) and expr.method in ("push", "store", "swap", "pop"):
                assigned.add(receiver.name)
            for arg in expr.args:
                visit_expr(arg)
        elif isinstance(expr, (ast.CallExpr,)):
            for arg in expr.args:
                if isinstance(arg, ast.BorrowExpr) and arg.mutable:
                    inner = arg.place
                    if isinstance(inner, ast.VarExpr):
                        assigned.add(inner.name)
                visit_expr(arg)
        elif isinstance(expr, ast.BinaryExpr):
            visit_expr(expr.lhs)
            visit_expr(expr.rhs)
        elif isinstance(expr, (ast.UnaryExpr,)):
            visit_expr(expr.operand)
        elif isinstance(expr, (ast.DerefExpr, ast.BorrowExpr)):
            visit_expr(expr.place)
        elif isinstance(expr, ast.IfExpr):
            visit_expr(expr.cond)
            visit_block(expr.then_block)
            if expr.else_block is not None:
                visit_block(expr.else_block)
        elif isinstance(expr, ast.BlockExpr):
            visit_block(expr.block)

    visit_block(block)
    return assigned


def count_spec_lines(fn: ast.FnDef) -> int:
    return sum(1 for attr in fn.attrs if attr.name in ("requires", "ensures"))


def count_invariant_lines(fn: ast.FnDef) -> int:
    count = 0

    def visit_block(block: ast.Block) -> None:
        nonlocal count
        for stmt in block.stmts:
            if isinstance(stmt, ast.MacroStmt) and stmt.name == "body_invariant":
                count += 1
            elif isinstance(stmt, ast.WhileStmt):
                visit_block(stmt.body)
            elif isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.IfExpr):
                visit_block(stmt.expr.then_block)
                if stmt.expr.else_block is not None:
                    visit_block(stmt.expr.else_block)

    if fn.body is not None:
        visit_block(fn.body)
    return count


def verify_source_prusti(
    source: str,
    only: Optional[Sequence[str]] = None,
    extra_sources: Sequence[str] = (),
) -> PrustiResult:
    """Verify every (non-trusted) function of a MiniRust source with the baseline."""
    programs = [parse_program(text) for text in (*extra_sources, source)]
    functions = [fn for program in programs for fn in program.functions]
    contracts = {fn.name: _contract_of(fn) for fn in functions}

    result = PrustiResult()
    started = time.perf_counter()
    for fn in functions:
        if only is not None and fn.name not in only:
            continue
        if contracts[fn.name].trusted or fn.body is None:
            continue
        fn_started = time.perf_counter()
        verifier = _FunctionVerifier(fn, contracts)
        failed: List[str] = []
        try:
            obligations = verifier.run()
        except PrustiError as error:
            obligations = []
            failed.append(f"encoding: {error}")
        for obligation in obligations:
            if not is_valid(obligation.hypotheses, obligation.goal):
                failed.append(obligation.tag)
        result.functions.append(
            PrustiFunctionResult(
                name=fn.name,
                ok=not failed,
                failed=failed,
                num_obligations=len(obligations),
                spec_lines=count_spec_lines(fn),
                invariant_lines=count_invariant_lines(fn),
                time=time.perf_counter() - fn_started,
            )
        )
    result.time = time.perf_counter() - started
    return result
