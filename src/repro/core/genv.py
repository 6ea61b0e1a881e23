"""Global environment: refined signatures, refined ADTs, and the built-in
vector API.

Signature elaboration turns the surface refined types of ``#[flux::sig]``
attributes into :mod:`repro.core.rtypes` values, collecting the ``@n``
refinement parameters along the way (§4.1: parameters must appear in
syntactically unifiable index positions, which the elaborator enforces).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang import ast
from repro.lang.span import Span
from repro.lang.specs import (
    BindIndex,
    FluxSigAst,
    SurfBase,
    SurfRef,
    SurfTy,
    SurfUnit,
    parse_field_type,
    parse_flux_sig,
    parse_refined_by,
    parse_variant_sig,
)
from repro.logic.expr import Expr, TRUE, Var
from repro.logic.sorts import INT, Sort
from repro.logic.subst import substitute
from repro.core.errors import FluxError
from repro.core.rtypes import (
    BTAdt,
    BTBool,
    BTFloat,
    BTInt,
    BTParam,
    BaseTy,
    RExists,
    RIndexed,
    RRef,
    RType,
    UNIT,
    fresh_name,
    unrefined,
)


#: What :meth:`GlobalEnv.function_dependencies` returns: ``(callees, adts)``.
Dependencies = Tuple[Tuple[str, ...], Tuple[str, ...]]

INT_TYPE_NAMES = {"i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize"}
FLOAT_TYPE_NAMES = {"f32", "f64"}


@dataclass(frozen=True)
class FluxSignature:
    """An elaborated, refined function signature."""

    name: str
    refinement_params: Tuple[Tuple[str, Sort], ...]
    param_names: Tuple[str, ...]
    param_types: Tuple[RType, ...]
    strong_params: Tuple[bool, ...]  # which params were declared &strg
    ret: RType
    ensures: Tuple[Tuple[str, RType], ...]
    generics: Tuple[str, ...] = ()
    trusted: bool = False
    #: Constraints on refinement parameters from ``B[@n]{v: pred}`` argument
    #: types: assumed when checking the function body, proved at call sites.
    requires: Tuple[Expr, ...] = ()
    #: Span of the ``#[flux::sig]`` attribute this signature was elaborated
    #: from (``None`` for default/built-in signatures); diagnostics point
    #: their secondary label here.
    span: Optional["Span"] = dataclasses.field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        params = ", ".join(
            f"{name}: {ty}" for name, ty in zip(self.param_names, self.param_types)
        )
        return f"fn {self.name}({params}) -> {self.ret}"


@dataclass(frozen=True)
class VariantInfo:
    """Refined constructor signature of one enum variant."""

    name: str
    refinement_params: Tuple[Tuple[str, Sort], ...]
    fields: Tuple[RType, ...]
    ret_indices: Tuple[Expr, ...]


@dataclass(frozen=True)
class AdtInfo:
    """A refined struct or enum definition."""

    name: str
    kind: str  # "struct" or "enum"
    generics: Tuple[str, ...]
    sorts: Tuple[Tuple[str, Sort], ...]  # refined_by entries
    fields: Tuple[Tuple[str, RType], ...] = ()  # structs: field name -> refined type
    variants: Tuple[VariantInfo, ...] = ()  # enums

    def index_sorts(self) -> Tuple[Sort, ...]:
        return tuple(sort for _, sort in self.sorts)

    def variant(self, name: str) -> VariantInfo:
        for variant in self.variants:
            if variant.name == name:
                return variant
        raise FluxError(f"enum {self.name} has no variant {name!r}")


class GlobalEnv:
    """Signatures and ADT definitions visible to the checker."""

    def __init__(self) -> None:
        self.signatures: Dict[str, FluxSignature] = {}
        self.adts: Dict[str, AdtInfo] = {}
        #: The definition each program signature was elaborated from, and
        #: the struct and enum items registered, in order: what a later
        #: environment compares against to reuse this one's signatures.
        self._defined: Dict[str, ast.FnDef] = {}
        self._adt_items: Tuple[object, ...] = ()
        #: Signature names by their last ``::`` segment, for method
        #: resolution, and each function's dependencies by definition
        #: identity, ``id(fn) -> (fn, (callees, adts))``.  Both read only
        #: the signature and ADT names: they are built on demand and
        #: dropped whenever a signature or an ADT is registered.
        self._by_method: Optional[Dict[str, List[str]]] = None
        self._dependencies: Dict[int, Tuple[ast.FnDef, Dependencies]] = {}
        self._register_builtin_adts()
        self._register_builtin_signatures()

    # -- ADT base construction -------------------------------------------------

    def adt_sorts(self, name: str) -> Tuple[Sort, ...]:
        info = self.adts.get(name)
        if info is None:
            return ()
        return info.index_sorts()

    def make_adt_base(self, name: str, args: Tuple[RType, ...]) -> BTAdt:
        return BTAdt(name, args, self.adt_sorts(name))

    # -- built-ins --------------------------------------------------------------

    def _register_builtin_adts(self) -> None:
        self.adts["RVec"] = AdtInfo("RVec", "struct", ("T",), (("len", INT),))
        self.adts["Box"] = AdtInfo("Box", "struct", ("T",), ())

    def _register_builtin_signatures(self) -> None:
        """Register the built-in signatures, elaborated once per process:
        they read only the built-in ADTs, which every environment has."""
        builtins = {
            # Fig. 3: the refined vector API.
            "RVec::new": ("fn() -> RVec<T>[0]", ("T",)),
            "RVec::len": ("fn(self: &RVec<T>[@n]) -> usize[n]", ("T",)),
            "RVec::get": ("fn(self: &RVec<T>[@n], idx: usize{v: v < n}) -> &T", ("T",)),
            "RVec::get_mut": (
                "fn(self: &mut RVec<T>[@n], idx: usize{v: v < n}) -> &mut T",
                ("T",),
            ),
            "RVec::push": (
                "fn(self: &strg RVec<T>[@n], value: T) ensures *self: RVec<T>[n + 1]",
                ("T",),
            ),
            "RVec::pop": (
                "fn(self: &strg RVec<T>{v: v > 0}) -> T ensures *self: RVec<T>{v: v >= 0}",
                ("T",),
            ),
            "RVec::swap": (
                "fn(self: &mut RVec<T>[@n], i: usize{v: v < n}, j: usize{v: v < n})",
                ("T",),
            ),
            "RVec::store": (
                "fn(self: &mut RVec<T>[@n], idx: usize{v: v < n}, value: T)",
                ("T",),
            ),
            "RVec::is_empty": ("fn(self: &RVec<T>[@n]) -> bool[n == 0]", ("T",)),
            # std::mem::swap — "specs for free via polymorphism" (§2.2).
            "swap": ("fn(x: &mut T, y: &mut T)", ("T",)),
            "Box::new": ("fn(value: T) -> Box<T>", ("T",)),
        }
        global _BUILTIN_SIGNATURES
        if _BUILTIN_SIGNATURES is None:
            elaborated = {}
            for name, (sig_source, generics) in builtins.items():
                tokens = tuple(t.text for t in _tokenize_sig(sig_source))
                sig_ast = parse_flux_sig(tokens)
                elaborated[name] = self.elaborate_signature(
                    name, sig_ast, generics=generics, rust_params=None, trusted=True
                )
            _BUILTIN_SIGNATURES = elaborated
        self.signatures.update(_BUILTIN_SIGNATURES)

    # -- program registration ---------------------------------------------------

    def register_program(self, program: ast.Program, previous: Optional["GlobalEnv"] = None) -> None:
        """Register a program's ADTs, then its function signatures.

        ``previous``, the environment of an earlier version of the program,
        lends its elaborated ADTs and signatures while they cannot differ:
        when every struct and enum item registered is the same object as in
        ``previous``, each function that is the same object as the one
        ``previous`` elaborated keeps that signature.  When the two end up
        with the same signature and ADT names, each function that is the
        same object as one whose dependencies ``previous`` found keeps them.
        """
        self._adt_items += program.structs + program.enums
        self._names_changed()
        reused: Dict[str, ast.FnDef] = {}
        if previous is not None and self._shares_adts(previous):
            self.adts.update(previous.adts)
            reused = previous._defined
        else:
            for struct in program.structs:
                self.register_struct(struct)
            for enum in program.enums:
                self.register_enum(enum)
        for fn in program.functions:
            if reused.get(fn.name) is fn:
                self.signatures[fn.name] = previous.signatures[fn.name]
                self._defined[fn.name] = fn
            else:
                self.register_function(fn)
        if (
            previous is not None
            and self.signatures.keys() == previous.signatures.keys()
            and self.adts.keys() == previous.adts.keys()
        ):
            known = previous._dependencies
            for fn in program.functions:
                entry = known.get(id(fn))
                if entry is not None and entry[0] is fn:
                    self._dependencies[id(fn)] = entry

    def _names_changed(self) -> None:
        """Drop what was derived from the signature and ADT names."""
        self._by_method = None
        if self._dependencies:
            self._dependencies = {}

    def _shares_adts(self, other: "GlobalEnv") -> bool:
        """Whether ``other`` registered the very same struct and enum items
        (the same objects, in the same order) through ``register_program``."""
        mine, theirs = self._adt_items, other._adt_items
        return len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs))

    def register_struct(self, struct: ast.StructDef) -> None:
        refined_by: Tuple[Tuple[str, Sort], ...] = ()
        for attr in struct.attrs:
            if attr.name in ("flux::refined_by", "refined_by"):
                refined_by = parse_refined_by(attr.tokens)
        # Register the ADT shell first so field types can mention it.
        self._names_changed()
        self.adts[struct.name] = AdtInfo(struct.name, "struct", struct.generics, refined_by)
        fields: List[Tuple[str, RType]] = []
        for field_def in struct.fields:
            field_type: Optional[RType] = None
            for attr in field_def.attrs:
                if attr.name in ("flux::field", "field"):
                    surf = parse_field_type(attr.tokens)
                    field_type, _ = self._elaborate(surf, struct.generics, {}, allow_binders=False)
            if field_type is None:
                field_type = self.rust_type_to_rtype(field_def.ty, struct.generics)
            fields.append((field_def.name, field_type))
        self.adts[struct.name] = AdtInfo(
            struct.name, "struct", struct.generics, refined_by, tuple(fields)
        )

    def register_enum(self, enum: ast.EnumDef) -> None:
        refined_by: Tuple[Tuple[str, Sort], ...] = ()
        for attr in enum.attrs:
            if attr.name in ("flux::refined_by", "refined_by"):
                refined_by = parse_refined_by(attr.tokens)
        self._names_changed()
        self.adts[enum.name] = AdtInfo(enum.name, "enum", enum.generics, refined_by)
        variants: List[VariantInfo] = []
        for variant in enum.variants:
            variant_attr = None
            for attr in variant.attrs:
                if attr.name in ("flux::variant", "variant"):
                    variant_attr = attr
            if variant_attr is not None:
                sig = parse_variant_sig(variant_attr.tokens)
                params: Dict[str, Sort] = {}
                fields = tuple(
                    self._elaborate(f, enum.generics, params)[0] for f in sig.fields
                )
                ret_indices = tuple(
                    index if not isinstance(index, BindIndex) else Var(index.name)
                    for index in sig.ret.indices
                )
                variants.append(
                    VariantInfo(variant.name, tuple(params.items()), fields, ret_indices)
                )
            else:
                fields = tuple(self.rust_type_to_rtype(f, enum.generics) for f in variant.fields)
                ret_indices = tuple(Var(fresh_name("idx"), sort) for _, sort in refined_by)
                params = {str(index): sort for index, (_, sort) in zip(ret_indices, refined_by)}
                variants.append(
                    VariantInfo(
                        variant.name,
                        tuple((str(index), sort) for index, (_, sort) in zip(ret_indices, refined_by)),
                        fields,
                        ret_indices,
                    )
                )
        self.adts[enum.name] = AdtInfo(
            enum.name, "enum", enum.generics, refined_by, (), tuple(variants)
        )

    def register_function(self, fn: ast.FnDef) -> None:
        sig_attr = None
        trusted = False
        for attr in fn.attrs:
            if attr.name in ("flux::sig", "sig"):
                sig_attr = attr
            if attr.name in ("flux::trusted", "trusted"):
                trusted = True
        if sig_attr is not None:
            sig_ast = parse_flux_sig(sig_attr.tokens)
            signature = self.elaborate_signature(
                fn.name, sig_ast, generics=fn.generics, rust_params=fn.params, trusted=trusted
            )
            signature = dataclasses.replace(signature, span=sig_attr.span)
        else:
            signature = self.default_signature(fn, trusted)
        self.signatures[fn.name] = signature
        self._defined[fn.name] = fn
        self._names_changed()

    # -- elaboration -----------------------------------------------------------------

    def default_signature(self, fn: ast.FnDef, trusted: bool = False) -> FluxSignature:
        """The unrefined signature derived from the Rust types alone."""
        param_types = tuple(self.rust_type_to_rtype(p.ty, fn.generics) for p in fn.params)
        ret = self.rust_type_to_rtype(fn.ret, fn.generics)
        return FluxSignature(
            name=fn.name,
            refinement_params=(),
            param_names=tuple(p.name for p in fn.params),
            param_types=param_types,
            strong_params=tuple(False for _ in fn.params),
            ret=ret,
            ensures=(),
            generics=tuple(fn.generics),
            trusted=trusted,
        )

    def rust_type_to_rtype(self, ty: ast.Type, generics: Sequence[str] = ()) -> RType:
        """The weakest refined type of a Rust type (existentials with ``true``)."""
        if isinstance(ty, ast.TyUnit):
            return UNIT
        if isinstance(ty, ast.TyRef):
            return RRef("mut" if ty.mutable else "shr", self.rust_type_to_rtype(ty.inner, generics))
        if isinstance(ty, ast.TyName):
            base = self._base_of_name(ty.name, tuple(
                self.rust_type_to_rtype(a, generics) for a in ty.args
            ), generics)
            return unrefined(base)
        raise FluxError(f"cannot interpret Rust type {ty}")

    def _base_of_name(self, name: str, args: Tuple[RType, ...], generics: Sequence[str]) -> BaseTy:
        if name in INT_TYPE_NAMES:
            return BTInt(name)
        if name == "bool":
            return BTBool()
        if name in FLOAT_TYPE_NAMES:
            return BTFloat(name)
        if name in generics:
            return BTParam(name)
        return self.make_adt_base(name, args)

    def elaborate_signature(
        self,
        name: str,
        sig_ast: FluxSigAst,
        generics: Sequence[str],
        rust_params: Optional[Sequence[ast.Param]],
        trusted: bool = False,
    ) -> FluxSignature:
        params: Dict[str, Sort] = {}
        param_types: List[RType] = []
        param_names: List[str] = []
        strong_flags: List[bool] = []
        requires: List[Expr] = []
        for index, sig_param in enumerate(sig_ast.params):
            rtype, strong = self._elaborate(sig_param.ty, generics, params, requires=requires)
            param_types.append(rtype)
            strong_flags.append(strong)
            if sig_param.name is not None:
                param_names.append(sig_param.name)
            elif rust_params is not None and index < len(rust_params):
                param_names.append(rust_params[index].name)
            else:
                param_names.append(f"arg{index}")
        if sig_ast.ret is None:
            ret: RType = UNIT
        else:
            ret, _ = self._elaborate(sig_ast.ret, generics, params, allow_binders=False)
        ensures: List[Tuple[str, RType]] = []
        for place, surf in sig_ast.ensures:
            rtype, _ = self._elaborate(surf, generics, params, allow_binders=False)
            ensures.append((place, rtype))
        if rust_params is not None and len(param_names) != len(rust_params):
            raise FluxError(
                f"flux signature of {name} has {len(param_names)} parameters, "
                f"the Rust signature has {len(rust_params)}"
            )
        if rust_params is not None:
            param_names = [p.name for p in rust_params]
        return FluxSignature(
            name=name,
            refinement_params=tuple(params.items()),
            param_names=tuple(param_names),
            param_types=tuple(param_types),
            strong_params=tuple(strong_flags),
            ret=ret,
            ensures=tuple(ensures),
            generics=tuple(generics),
            trusted=trusted,
            requires=tuple(requires),
        )

    def _elaborate(
        self,
        surf: SurfTy,
        generics: Sequence[str],
        params: Dict[str, Sort],
        allow_binders: bool = True,
        requires: Optional[List[Expr]] = None,
    ) -> Tuple[RType, bool]:
        """Elaborate a surface refined type.  Returns (type, was-strong-ref).

        ``requires`` collects constraints arising from the combined
        index-binding-plus-constraint form ``B[@n]{v: pred}``; passing
        ``None`` (return/ensures/field positions) makes that form an error.
        """
        if isinstance(surf, SurfUnit):
            return UNIT, False
        if isinstance(surf, SurfRef):
            inner, _ = self._elaborate(surf.inner, generics, params, allow_binders, requires)
            if surf.kind == "strg":
                # Strong references are modelled as mutable references whose
                # argument must be a strong pointer at the call site; the flag
                # is carried separately in the signature.
                return RRef("mut", inner), True
            return RRef(surf.kind, inner), False
        if isinstance(surf, SurfBase):
            args = tuple(
                self._elaborate(a, generics, params, allow_binders)[0] for a in surf.args
            )
            base = self._base_of_name(surf.name, args, generics)
            sorts = base.index_sorts()
            if surf.exists_binder is not None and not surf.indices:
                binders = tuple(
                    (surf.exists_binder if position == 0 else fresh_name(surf.exists_binder), sort)
                    for position, sort in enumerate(sorts)
                )
                if not binders:
                    raise FluxError(f"type {surf.name} takes no refinement index")
                return RExists(base, binders, surf.exists_pred or TRUE), False
            if surf.indices:
                if len(surf.indices) != len(sorts):
                    raise FluxError(
                        f"type {surf.name} expects {len(sorts)} refinement indices, "
                        f"got {len(surf.indices)}"
                    )
                index_exprs: List[Expr] = []
                for position, index in enumerate(surf.indices):
                    if isinstance(index, BindIndex):
                        if not allow_binders:
                            raise FluxError(
                                f"@{index.name} may only appear in argument position"
                            )
                        params.setdefault(index.name, sorts[position])
                        index_exprs.append(Var(index.name, sorts[position]))
                    else:
                        index_exprs.append(index)
                if surf.exists_binder is not None:
                    # ``B[@n]{v: pred}``: the constraint reads the first index
                    # through the binder.  It is not part of the type — it
                    # becomes a signature-level requirement on the refinement
                    # parameters (assumed in the body, proved at call sites).
                    if requires is None:
                        raise FluxError(
                            f"type {surf.name}: an index constraint "
                            "{...} is only supported in argument position"
                        )
                    constraint = substitute(
                        surf.exists_pred or TRUE,
                        {surf.exists_binder: index_exprs[0]},
                    )
                    if constraint != TRUE:
                        requires.append(constraint)
                return RIndexed(base, tuple(index_exprs)), False
            return unrefined(base), False
        raise FluxError(f"cannot elaborate surface type {surf!r}")

    # -- dependency extraction ----------------------------------------------------------

    def function_dependencies(self, fn: ast.FnDef) -> Dependencies:
        """Names a function's verification depends on: ``(callees, adts)``.

        Verification is modular — checking ``fn`` consults only the
        *signatures* of its callees and the refined definitions of the ADTs it
        mentions, never callee bodies.  These name sets are what the service
        cache keys hash: a function result stays valid as long as the
        function's own text and every named interface are unchanged.

        Method calls are resolved conservatively: ``x.len()`` depends on every
        registered ``Path::len`` signature, since the receiver type is only
        known after type inference.  The signatures are looked up by their
        last path segment, in an index built once per set of signatures.
        The answer is remembered per definition until a signature or an ADT
        is registered.
        """
        entry = self._dependencies.get(id(fn))
        if entry is not None and entry[0] is fn:
            return entry[1]
        callees: set = set()
        adts: set = set()
        methods: set = set()

        def visit_type(ty: ast.Type) -> None:
            if isinstance(ty, ast.TyRef):
                visit_type(ty.inner)
            elif isinstance(ty, ast.TyName):
                if ty.name in self.adts:
                    adts.add(ty.name)
                for arg in ty.args:
                    visit_type(arg)

        def visit_expr(expr: Optional[ast.Expr]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.CallExpr):
                callees.add(expr.func)
                owner = expr.func.split("::", 1)[0]
                if "::" in expr.func and owner in self.adts:
                    adts.add(owner)
                for arg in expr.args:
                    visit_expr(arg)
            elif isinstance(expr, ast.MethodCallExpr):
                methods.add(expr.method)
                visit_expr(expr.receiver)
                for arg in expr.args:
                    visit_expr(arg)
            elif isinstance(expr, ast.FieldExpr):
                visit_expr(expr.receiver)
            elif isinstance(expr, (ast.UnaryExpr,)):
                visit_expr(expr.operand)
            elif isinstance(expr, ast.BinaryExpr):
                visit_expr(expr.lhs)
                visit_expr(expr.rhs)
            elif isinstance(expr, ast.BorrowExpr):
                visit_expr(expr.place)
            elif isinstance(expr, ast.DerefExpr):
                visit_expr(expr.place)
            elif isinstance(expr, ast.StructLit):
                if expr.name in self.adts:
                    adts.add(expr.name)
                for _, value in expr.fields:
                    visit_expr(value)
            elif isinstance(expr, ast.IfExpr):
                visit_expr(expr.cond)
                visit_block(expr.then_block)
                if expr.else_block is not None:
                    visit_block(expr.else_block)
            elif isinstance(expr, ast.MatchExpr):
                visit_expr(expr.scrutinee)
                for arm in expr.arms:
                    owner = arm.variant.split("::", 1)[0]
                    if owner in self.adts:
                        adts.add(owner)
                    visit_block(arm.body)
            elif isinstance(expr, ast.BlockExpr):
                visit_block(expr.block)
            elif isinstance(expr, ast.CastExpr):
                visit_expr(expr.operand)
                visit_type(expr.target)

        def visit_block(block: ast.Block) -> None:
            for stmt in block.stmts:
                if isinstance(stmt, ast.LetStmt):
                    if stmt.ty is not None:
                        visit_type(stmt.ty)
                    visit_expr(stmt.init)
                elif isinstance(stmt, ast.AssignStmt):
                    visit_expr(stmt.place)
                    visit_expr(stmt.value)
                elif isinstance(stmt, ast.ExprStmt):
                    visit_expr(stmt.expr)
                elif isinstance(stmt, ast.WhileStmt):
                    visit_expr(stmt.cond)
                    visit_block(stmt.body)
                elif isinstance(stmt, ast.ReturnStmt):
                    visit_expr(stmt.value)
            visit_expr(block.tail)

        for param in fn.params:
            visit_type(param.ty)
        visit_type(fn.ret)
        if fn.body is not None:
            visit_block(fn.body)
        # Refinement signatures mention ADTs by name inside raw attribute
        # tokens (e.g. ``RVec<T>[@n]``); scan those tokens too.
        for attr in fn.attrs:
            for token in attr.tokens:
                if token in self.adts:
                    adts.add(token)
        by_method = self._by_method
        if by_method is None and methods:
            by_method = self._by_method = {}
            for name in self.signatures:
                if "::" in name:
                    by_method.setdefault(name.rsplit("::", 1)[1], []).append(name)
        for method in methods:
            for name in by_method.get(method, ()):
                callees.add(name)
                owner = name.split("::", 1)[0]
                if owner in self.adts:
                    adts.add(owner)
            if method in self.signatures:
                callees.add(method)
        callees.discard(fn.name)
        dependencies = tuple(sorted(callees)), tuple(sorted(adts))
        self._dependencies[id(fn)] = (fn, dependencies)
        return dependencies

    # -- queries -----------------------------------------------------------------------

    def signature(self, name: str) -> FluxSignature:
        sig = self.signatures.get(name)
        if sig is None:
            raise FluxError(f"no signature registered for function {name!r}")
        return sig

    def adt(self, name: str) -> AdtInfo:
        info = self.adts.get(name)
        if info is None:
            raise FluxError(f"unknown ADT {name!r}")
        return info


#: The elaborated built-in signatures, shared by every environment.
_BUILTIN_SIGNATURES: Optional[Dict[str, FluxSignature]] = None


def _tokenize_sig(source: str):
    from repro.lang.lexer import tokenize

    return [t for t in tokenize(source) if t.kind != "eof"]
