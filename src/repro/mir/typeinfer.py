"""Rust-level type inference over MIR.

The Flux plug-in consumes MIR that rustc has already elaborated with type
information; method calls are resolved and generic instantiations are known.
This pass reconstructs exactly that information for MiniRust: a small
unification-based inference that

* assigns a Rust type to every local (including compiler temporaries),
* resolves ``method:`` calls to qualified functions (``RVec::push``,
  ``List::append``, ...) using the receiver's type, and
* instantiates generic signatures at call sites.

The refinement checker then runs on a fully-typed body, mirroring §4's
"programs that have already been analysed by the compiler".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang import ast
from repro.mir.ir import (
    AggregateRv,
    AssignStatement,
    BinRv,
    Body,
    CallTerm,
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


class TypeError_(Exception):
    """Raised when MiniRust type inference fails."""


@dataclass(frozen=True)
class TyVar(ast.Type):
    """A unification variable."""

    index: int

    def __str__(self) -> str:
        return f"?{self.index}"


INT_TYPES = {"i32", "i64", "u32", "u64", "usize", "isize", "u8", "i8"}
CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
ARITH_OPS = {"+", "-", "*", "/", "%"}
BOOL_OPS = {"&&", "||"}


@dataclass(frozen=True)
class FnSig:
    """Rust-level function signature."""

    name: str
    generics: Tuple[str, ...]
    params: Tuple[ast.Type, ...]
    ret: ast.Type


def builtin_signatures() -> Dict[str, FnSig]:
    """Rust-level signatures of the built-in vector API and std helpers."""
    T = ast.TyName("T")
    usize = ast.TyName("usize")
    unit = ast.TyUnit()
    vec_t = ast.TyName("RVec", (T,))

    def sig(name: str, generics, params, ret) -> FnSig:
        return FnSig(name, tuple(generics), tuple(params), ret)

    return {
        s.name: s
        for s in [
            sig("RVec::new", ["T"], [], vec_t),
            sig("RVec::len", ["T"], [ast.TyRef(False, vec_t)], usize),
            sig("RVec::get", ["T"], [ast.TyRef(False, vec_t), usize], ast.TyRef(False, T)),
            sig("RVec::get_mut", ["T"], [ast.TyRef(True, vec_t), usize], ast.TyRef(True, T)),
            sig("RVec::push", ["T"], [ast.TyRef(True, vec_t), T], unit),
            sig("RVec::pop", ["T"], [ast.TyRef(True, vec_t)], T),
            sig("RVec::swap", ["T"], [ast.TyRef(True, vec_t), usize, usize], unit),
            sig("RVec::store", ["T"], [ast.TyRef(True, vec_t), usize, T], unit),
            sig("RVec::is_empty", ["T"], [ast.TyRef(False, vec_t)], ast.TyName("bool")),
            sig("swap", ["T"], [ast.TyRef(True, T), ast.TyRef(True, T)], unit),
            sig("Box::new", ["T"], [T], ast.TyName("Box", (T,))),
        ]
    }


@dataclass
class ProgramTypes:
    """Rust-level typing context for a whole program."""

    functions: Dict[str, FnSig] = field(default_factory=dict)
    structs: Dict[str, ast.StructDef] = field(default_factory=dict)
    enums: Dict[str, ast.EnumDef] = field(default_factory=dict)
    #: The definition each of the program's entries in ``functions`` was
    #: made from.
    definitions: Dict[str, ast.FnDef] = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_program(
        program: ast.Program, previous: Optional["ProgramTypes"] = None
    ) -> "ProgramTypes":
        """The program's context; a function whose definition is the same
        object in ``previous``, an earlier version's context, keeps the
        signature made there (a signature depends on its definition only)."""
        context = ProgramTypes(functions=dict(builtin_signatures()))
        for struct in program.structs:
            context.structs[struct.name] = struct
        for enum in program.enums:
            context.enums[enum.name] = enum
        known = previous.definitions if previous is not None else {}
        functions, definitions = context.functions, context.definitions
        for fn in program.functions:
            name = fn.name
            if known.get(name) is fn:
                functions[name] = previous.functions[name]
            else:
                functions[name] = FnSig(
                    name,
                    tuple(fn.generics),
                    tuple(param.ty for param in fn.params),
                    fn.ret,
                )
            definitions[name] = fn
        return context

    def field_type(self, struct_name: str, field_name: str, args: Tuple[ast.Type, ...]) -> ast.Type:
        struct = self.structs.get(struct_name)
        if struct is None:
            raise TypeError_(f"unknown struct {struct_name!r}")
        for field_def in struct.fields:
            if field_def.name == field_name:
                substitution = dict(zip(struct.generics, args))
                return _substitute(field_def.ty, substitution)
        raise TypeError_(f"struct {struct_name} has no field {field_name!r}")

    def variant_fields(
        self, enum_name: str, variant_name: str, args: Tuple[ast.Type, ...]
    ) -> Tuple[ast.Type, ...]:
        enum = self.enums.get(enum_name)
        if enum is None:
            raise TypeError_(f"unknown enum {enum_name!r}")
        for variant in enum.variants:
            if variant.name == variant_name:
                substitution = dict(zip(enum.generics, args))
                return tuple(_substitute(ty, substitution) for ty in variant.fields)
        raise TypeError_(f"enum {enum_name} has no variant {variant_name!r}")


def _substitute(ty: ast.Type, mapping: Dict[str, ast.Type]) -> ast.Type:
    if isinstance(ty, ast.TyName):
        if not ty.args and ty.name in mapping:
            return mapping[ty.name]
        return ast.TyName(ty.name, tuple(_substitute(a, mapping) for a in ty.args))
    if isinstance(ty, ast.TyRef):
        return ast.TyRef(ty.mutable, _substitute(ty.inner, mapping))
    return ty


class _Unifier:
    def __init__(self) -> None:
        self._bindings: Dict[int, ast.Type] = {}
        self._counter = itertools.count(1)

    def fresh(self) -> TyVar:
        return TyVar(next(self._counter))

    def resolve(self, ty: ast.Type) -> ast.Type:
        while isinstance(ty, TyVar) and ty.index in self._bindings:
            ty = self._bindings[ty.index]
        if isinstance(ty, ast.TyName) and ty.args:
            return ast.TyName(ty.name, tuple(self.resolve(a) for a in ty.args))
        if isinstance(ty, ast.TyRef):
            return ast.TyRef(ty.mutable, self.resolve(ty.inner))
        return ty

    def unify(self, left: ast.Type, right: ast.Type, context: str = "") -> None:
        left = self.resolve(left)
        right = self.resolve(right)
        if left == right:
            return
        if isinstance(left, TyVar):
            self._bindings[left.index] = right
            return
        if isinstance(right, TyVar):
            self._bindings[right.index] = left
            return
        if isinstance(left, ast.TyRef) and isinstance(right, ast.TyRef):
            self.unify(left.inner, right.inner, context)
            return
        if isinstance(left, ast.TyName) and isinstance(right, ast.TyName):
            if left.name in INT_TYPES and right.name in INT_TYPES and not left.args and not right.args:
                # Integer literals and mixed widths: MiniRust is permissive here,
                # matching how the benchmarks use i32/usize interchangeably in
                # arithmetic; the refinement layer treats all of them as sort int.
                return
            if left.name == right.name and len(left.args) == len(right.args):
                for a, b in zip(left.args, right.args):
                    self.unify(a, b, context)
                return
        raise TypeError_(f"cannot unify {left} with {right}" + (f" ({context})" if context else ""))


def infer_types(body: Body, context: ProgramTypes) -> Dict[str, ast.Type]:
    """Infer the Rust type of every local of ``body``.

    Also rewrites ``method:`` call terminators to their resolved qualified
    names.  Returns the map from local names to resolved types.
    """
    inference = _Inference(body, context)
    return inference.run()


class _Inference:
    def __init__(self, body: Body, context: ProgramTypes) -> None:
        self.body = body
        self.context = context
        self.unifier = _Unifier()
        self.local_types: Dict[str, ast.Type] = {}
        for name, declared in body.local_types.items():
            self.local_types[name] = declared if declared is not None else self.unifier.fresh()

    # -- helpers ---------------------------------------------------------------

    def type_of_local(self, name: str) -> ast.Type:
        if name not in self.local_types:
            self.local_types[name] = self.unifier.fresh()
        return self.local_types[name]

    def type_of_place(self, place: Place) -> ast.Type:
        ty = self.type_of_local(place.local)
        for projection in place.projections:
            ty = self.unifier.resolve(ty)
            if projection == ("deref",):
                if isinstance(ty, ast.TyRef):
                    ty = ty.inner
                elif isinstance(ty, ast.TyName) and ty.name == "Box":
                    ty = ty.args[0]
                elif isinstance(ty, TyVar):
                    inner = self.unifier.fresh()
                    self.unifier.unify(ty, ast.TyRef(True, inner))
                    ty = inner
                else:
                    raise TypeError_(f"cannot dereference value of type {ty}")
            else:
                _, field_name = projection
                ty = self._auto_deref(ty)
                if not isinstance(ty, ast.TyName):
                    raise TypeError_(f"cannot project field {field_name} out of {ty}")
                ty = self.context.field_type(ty.name, field_name, ty.args)
        return ty

    def _auto_deref(self, ty: ast.Type) -> ast.Type:
        ty = self.unifier.resolve(ty)
        while True:
            if isinstance(ty, ast.TyRef):
                ty = self.unifier.resolve(ty.inner)
                continue
            if isinstance(ty, ast.TyName) and ty.name == "Box" and ty.args:
                ty = self.unifier.resolve(ty.args[0])
                continue
            return ty

    def type_of_operand(self, operand: Operand) -> ast.Type:
        if isinstance(operand, PlaceOperand):
            return self.type_of_place(operand.place)
        value = operand.value
        if value is None:
            return ast.TyUnit()
        if isinstance(value, bool):
            return ast.TyName("bool")
        if isinstance(value, int):
            return self.unifier.fresh()  # integer literal: adopts the context's width
        if isinstance(value, float):
            return ast.TyName("f32")
        raise TypeError_(f"unknown constant {value!r}")

    # -- main loop ----------------------------------------------------------------

    def run(self) -> Dict[str, ast.Type]:
        for _ in range(4):
            for block in self.body.blocks:
                for statement in block.statements:
                    self.visit_statement(statement)
                self.visit_terminator(block)
        resolved: Dict[str, ast.Type] = {}
        for name in self.local_types:
            ty = self.unifier.resolve(self.local_types[name])
            resolved[name] = self._default_unknowns(ty)
        self.body.local_types.update(resolved)
        return resolved

    def _default_unknowns(self, ty: ast.Type) -> ast.Type:
        if isinstance(ty, TyVar):
            return ast.TyName("i32")
        if isinstance(ty, ast.TyName):
            return ast.TyName(ty.name, tuple(self._default_unknowns(a) for a in ty.args))
        if isinstance(ty, ast.TyRef):
            return ast.TyRef(ty.mutable, self._default_unknowns(ty.inner))
        return ty

    # -- statements ------------------------------------------------------------------

    def visit_statement(self, statement: AssignStatement) -> None:
        target = self.type_of_place(statement.place)
        rvalue = statement.rvalue
        if isinstance(rvalue, UseRv):
            self.unifier.unify(target, self.type_of_operand(rvalue.operand), "assignment")
        elif isinstance(rvalue, BinRv):
            lhs = self.type_of_operand(rvalue.lhs)
            rhs = self.type_of_operand(rvalue.rhs)
            if rvalue.op in CMP_OPS:
                self.unifier.unify(lhs, rhs, "comparison")
                self.unifier.unify(target, ast.TyName("bool"), "comparison result")
            elif rvalue.op in BOOL_OPS:
                self.unifier.unify(lhs, ast.TyName("bool"))
                self.unifier.unify(rhs, ast.TyName("bool"))
                self.unifier.unify(target, ast.TyName("bool"))
            else:
                self.unifier.unify(lhs, rhs, f"operator {rvalue.op}")
                self.unifier.unify(target, lhs, f"operator {rvalue.op}")
        elif isinstance(rvalue, UnRv):
            operand = self.type_of_operand(rvalue.operand)
            if rvalue.op == "!":
                self.unifier.unify(operand, ast.TyName("bool"))
                self.unifier.unify(target, ast.TyName("bool"))
            else:
                self.unifier.unify(target, operand)
        elif isinstance(rvalue, RefRv):
            inner = self.type_of_place(rvalue.place)
            self.unifier.unify(target, ast.TyRef(rvalue.mutable, inner), "borrow")
        elif isinstance(rvalue, AggregateRv):
            self.visit_aggregate(target, rvalue)
        else:
            raise TypeError_(f"unknown rvalue {rvalue!r}")

    def visit_aggregate(self, target: ast.Type, rvalue: AggregateRv) -> None:
        if rvalue.variant is None:
            struct = self.context.structs.get(rvalue.adt)
            if struct is None:
                raise TypeError_(f"unknown struct {rvalue.adt!r}")
            args = tuple(self.unifier.fresh() for _ in struct.generics)
            substitution = dict(zip(struct.generics, args))
            fields_by_name = {f.name: f.ty for f in struct.fields}
            for name, operand in zip(rvalue.field_names, rvalue.operands):
                formal = _substitute(fields_by_name[name], substitution)
                self.unifier.unify(self.type_of_operand(operand), formal, f"field {name}")
            self.unifier.unify(target, ast.TyName(rvalue.adt, args), "struct literal")
        else:
            enum = self.context.enums.get(rvalue.adt)
            if enum is None:
                raise TypeError_(f"unknown enum {rvalue.adt!r}")
            args = tuple(self.unifier.fresh() for _ in enum.generics)
            fields = self.context.variant_fields(rvalue.adt, rvalue.variant, args)
            for operand, formal in zip(rvalue.operands, fields):
                self.unifier.unify(self.type_of_operand(operand), formal, "variant field")
            self.unifier.unify(target, ast.TyName(rvalue.adt, args), "enum literal")

    # -- terminators --------------------------------------------------------------------

    def visit_terminator(self, block) -> None:
        terminator = block.terminator
        if isinstance(terminator, SwitchBool):
            self.unifier.unify(self.type_of_operand(terminator.operand), ast.TyName("bool"))
        elif isinstance(terminator, ReturnTerm):
            if terminator.operand is not None:
                declared = self.body.fn_def.ret
                operand_ty = self.type_of_operand(terminator.operand)
                if not isinstance(declared, ast.TyUnit):
                    self.unifier.unify(operand_ty, declared, "return value")
        elif isinstance(terminator, CallTerm):
            self.visit_call(terminator)
        elif isinstance(terminator, SwitchVariant):
            self.visit_switch_variant(terminator)

    def visit_call(self, call: CallTerm) -> None:
        func = call.func
        if func.startswith("method:"):
            resolved = self.resolve_method(func[len("method:"):], call.args)
            if resolved is None:
                return  # receiver type not known yet; a later round resolves it
            call.func = resolved
            func = resolved
        signature = self.lookup_signature(func)
        if signature is None:
            raise TypeError_(f"call to unknown function {func!r}")
        substitution = {name: self.unifier.fresh() for name in signature.generics}
        formals = [_substitute(p, substitution) for p in signature.params]
        ret = _substitute(signature.ret, substitution)
        for operand, formal in zip(call.args, formals):
            actual = self.type_of_operand(operand)
            self.unify_argument(formal, actual)
        if not isinstance(ret, ast.TyUnit):
            self.unifier.unify(self.type_of_place(call.destination), ret, f"result of {func}")

    def lookup_signature(self, func: str) -> Optional[FnSig]:
        signature = self.context.functions.get(func)
        if signature is not None:
            return signature
        # enum variant constructors used as functions, e.g. List::Cons(x, y)
        if "::" in func:
            enum_name, variant = func.split("::", 1)
            enum = self.context.enums.get(enum_name)
            if enum is not None:
                args = tuple(ast.TyName(g) for g in enum.generics)
                try:
                    fields = self.context.variant_fields(enum_name, variant, args)
                except TypeError_:
                    return None
                return FnSig(func, tuple(enum.generics), fields, ast.TyName(enum_name, args))
        return None

    def unify_argument(self, formal: ast.Type, actual: ast.Type) -> None:
        """Unify a call argument, allowing auto-(de)ref as rustc does."""
        formal_r = self.unifier.resolve(formal)
        actual_r = self.unifier.resolve(actual)
        if isinstance(formal_r, ast.TyRef) and not isinstance(actual_r, ast.TyRef):
            self.unifier.unify(formal_r.inner, actual_r, "auto-borrowed argument")
            return
        if not isinstance(formal_r, ast.TyRef) and isinstance(actual_r, ast.TyRef):
            self.unifier.unify(formal_r, actual_r.inner, "auto-dereferenced argument")
            return
        self.unifier.unify(formal_r, actual_r, "argument")

    def resolve_method(self, method: str, args: List[Operand]) -> Optional[str]:
        if not args:
            return None
        receiver = self.unifier.resolve(self.type_of_operand(args[0]))
        receiver = self._auto_deref(receiver)
        if isinstance(receiver, TyVar):
            return None
        if isinstance(receiver, ast.TyName):
            qualified = f"{receiver.name}::{method}"
            if qualified in self.context.functions or self.lookup_signature(qualified):
                return qualified
        # fall back to a unique suffix match among known functions
        candidates = [
            name for name in self.context.functions if name.endswith(f"::{method}")
        ]
        if len(candidates) == 1:
            return candidates[0]
        raise TypeError_(
            f"cannot resolve method {method!r} on receiver of type {receiver}"
        )

    def visit_switch_variant(self, terminator: SwitchVariant) -> None:
        scrutinee = self.unifier.resolve(self.type_of_place(terminator.place))
        behind_mut_ref = isinstance(scrutinee, ast.TyRef) and scrutinee.mutable
        behind_ref = isinstance(scrutinee, ast.TyRef)
        enum_ty = self._auto_deref(scrutinee)
        if isinstance(enum_ty, TyVar):
            return
        if not isinstance(enum_ty, ast.TyName) or enum_ty.name not in self.context.enums:
            raise TypeError_(f"match on non-enum type {enum_ty}")
        if not terminator.enum_name:
            terminator.enum_name = enum_ty.name
        for variant_name, bindings, _ in terminator.arms:
            if variant_name == "_":
                continue
            fields = self.context.variant_fields(enum_ty.name, variant_name, enum_ty.args)
            for binding, field_ty in zip(bindings, fields):
                if binding == "_":
                    continue
                bound_ty: ast.Type = field_ty
                if behind_ref:
                    bound_ty = ast.TyRef(behind_mut_ref, field_ty)
                self.unifier.unify(self.type_of_local(binding), bound_ty, "match binding")
