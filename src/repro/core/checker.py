"""The Flux refinement checker over MIR.

For each function the checker walks the CFG in reverse postorder maintaining
a *refinement state*: a set of refinement binders with hypotheses (the ``Δ``
context of the paper) and a map from MIR locals to refined types (``Γ`` and
``T`` merged, since every MIR local is an exclusively-owned location).

* Exclusive ownership gives **strong updates**: assigning to a local replaces
  its refined type.
* ``&mut`` borrows produce **strong pointers** (``RPtr``) while the target
  place is statically known; they are weakened into ordinary ``&mut T``
  references when the context demands it (function calls expecting ``&mut``,
  or joins where the pointed-to place differs between branches) — rule
  T-bsmut, with the target type chosen by inference.
* Join points and loop heads get **templates** whose refinements are unknown
  κ variables; liquid inference solves them, which is how loop invariants are
  synthesised without annotations (§4.2).
* Calls instantiate refinement parameters by syntactic unification of index
  positions (§4.1) and generic type parameters with κ-templates (§4.3);
  ``ensures`` clauses strongly update the places passed through strong
  references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lang import ast
from repro.logic.expr import (
    binop,
    BoolConst,
    Expr,
    FALSE,
    IntConst,
    TRUE,
    Var,
    and_,
    eq,
    ge,
    le,
    lt,
    not_,
)
from repro.logic.sorts import INT, Sort
from repro.logic.subst import substitute
from repro.fixpoint.constraint import (
    Constraint,
    KVarDecl,
    attach_span,
    c_forall,
    c_pred,
)
from repro.lang.span import Span
from repro.logic.expr import KVar
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
    Rvalue,
    SwitchBool,
    SwitchVariant,
    UnRv,
    UseRv,
)
from repro.core.errors import FluxError
from repro.core.genv import FluxSignature, GlobalEnv
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
    UNINIT,
    UNIT,
    base_invariants,
    base_of,
    fresh_name,
    subst_rtype,
    subst_type_params,
    unrefined,
)
from repro.core.subtyping import subtype


@dataclass
class RefinementState:
    """Δ (binders + hypotheses) and the local type environment of one program point."""

    binders: List[Tuple[str, Sort]] = field(default_factory=list)
    hypotheses: List[Expr] = field(default_factory=list)
    env: Dict[str, RType] = field(default_factory=dict)

    def copy(self) -> "RefinementState":
        return RefinementState(list(self.binders), list(self.hypotheses), dict(self.env))

    def bind(self, name: str, sort: Sort) -> Var:
        self.binders.append((name, sort))
        return Var(name, sort)

    def assume(self, fact: Expr) -> None:
        if fact != TRUE:
            self.hypotheses.append(fact)


@dataclass
class CheckOutput:
    constraints: List[Constraint]
    kvar_decls: Dict[str, KVarDecl]
    num_kvars: int


class Checker:
    """Refinement checking of a single function body."""

    def __init__(self, body: Body, genv: GlobalEnv, signature: FluxSignature) -> None:
        self.body = body
        self.genv = genv
        self.signature = signature
        self.constraints: List[Constraint] = []
        self.kvar_decls: Dict[str, KVarDecl] = {}
        self._kvar_counter = itertools.count(0)
        self._entry_binders: List[Tuple[str, Sort]] = []
        self._entry_hypotheses: List[Expr] = []
        self._join_templates: Dict[int, Dict[str, RType]] = {}
        self._join_states: Dict[int, RefinementState] = {}
        self._mutated_locals = self._compute_mutated_locals()
        # Span of the MIR statement/terminator currently being checked;
        # stamped onto every constraint leaf emitted while it is current.
        self._current_span: Optional[Span] = None

    # ------------------------------------------------------------------ setup

    def _compute_mutated_locals(self) -> Set[str]:
        mutated: Set[str] = set()
        for block in self.body.blocks:
            for statement in block.statements:
                mutated.add(statement.place.local)
                if isinstance(statement.rvalue, RefRv) and statement.rvalue.mutable:
                    mutated.add(statement.rvalue.place.local)
            terminator = block.terminator
            if isinstance(terminator, CallTerm):
                mutated.add(terminator.destination.local)
        return mutated

    @staticmethod
    def _hint_for(name: str, fallback: str) -> str:
        """Binder-name hint for a local/place named ``name``.

        Counterexample display maps a binder ``stem%N`` back to the source
        local whose name *equals* the stem, so source-derived hints must
        preserve the name exactly (including a conventional leading
        underscore, ``_x`` and ``x`` being distinct locals).  Compiler
        temporaries keep a dunder prefix, which the model layer filters out,
        so they can never be mistaken for a user variable.
        """
        base = name.split("@", 1)[0]
        if base and not base.startswith("__"):
            return base
        return f"__{fallback}"

    def fresh_kvar(self, params: Sequence[Tuple[str, Sort]]) -> KVar:
        name = f"k{next(self._kvar_counter)}_{self.body.name.replace(':', '_')}"
        decl = KVarDecl(name, tuple(params))
        self.kvar_decls[name] = decl
        return KVar(name, tuple(Var(p, s) for p, s in params))

    # -------------------------------------------------------------- constraint emission

    def emit(self, state: RefinementState, constraint: Constraint) -> None:
        """Wrap a constraint in the state's binders and hypotheses and record it."""
        wrapped = attach_span(constraint, self._current_span)
        hypotheses = and_(*state.hypotheses) if state.hypotheses else TRUE
        if state.binders:
            # innermost binder gets the hypotheses; outer binders just scope
            names = list(state.binders)
            last_name, last_sort = names[-1]
            wrapped = c_forall(last_name, last_sort, hypotheses, wrapped)
            for name, sort in reversed(names[:-1]):
                wrapped = c_forall(name, sort, TRUE, wrapped)
        elif state.hypotheses:
            from repro.fixpoint.constraint import c_implies

            wrapped = c_implies(hypotheses, wrapped)
        self.constraints.append(wrapped)

    def check_subtype(self, state: RefinementState, lhs: RType, rhs: RType, tag: str) -> None:
        self.emit(state, subtype(lhs, rhs, tag))

    # -------------------------------------------------------------- unpacking

    def unpack(self, state: RefinementState, rtype: RType, hint: str = "a") -> RType:
        """Eagerly open existentials into the refinement context (§4.1)."""
        if isinstance(rtype, RExists):
            mapping: Dict[str, Expr] = {}
            fresh_vars: List[Expr] = []
            for name, sort in rtype.binders:
                fresh = fresh_name(hint)
                state.bind(fresh, sort)
                mapping[name] = Var(fresh, sort)
                fresh_vars.append(Var(fresh, sort))
            state.assume(substitute(rtype.pred, mapping))
            base = self._subst_base(rtype.base, mapping)
            for fact in base_invariants(base, fresh_vars):
                state.assume(fact)
            return RIndexed(base, tuple(fresh_vars))
        if isinstance(rtype, RIndexed):
            for fact in base_invariants(rtype.base, rtype.indices):
                state.assume(fact)
            return rtype
        return rtype

    @staticmethod
    def _subst_base(base: BaseTy, mapping: Dict[str, Expr]) -> BaseTy:
        if isinstance(base, BTAdt):
            return BTAdt(base.name, tuple(subst_rtype(a, mapping) for a in base.args), base.sorts)
        return base

    # -------------------------------------------------------------- entry state

    def entry_state(self) -> RefinementState:
        state = RefinementState()
        for name, sort in self.signature.refinement_params:
            state.bind(name, sort)
        for constraint in self.signature.requires:
            state.assume(constraint)
        for name, declared, strong in zip(
            self.signature.param_names, self.signature.param_types, self.signature.strong_params
        ):
            if strong:
                assert isinstance(declared, RRef)
                ghost = f"{name}@deref"
                state.env[ghost] = self.unpack(state, declared.inner, hint=name)
                state.env[name] = RPtr(ghost)
                self.body.local_types.setdefault(ghost, None)
            elif isinstance(declared, RRef):
                state.env[name] = self._open_shared_ref(state, declared, hint=name)
            else:
                state.env[name] = self.unpack(state, declared, hint=name)
        self._entry_binders = list(state.binders)
        self._entry_hypotheses = list(state.hypotheses)
        return state

    # -------------------------------------------------------------- main loop

    def check(self) -> CheckOutput:
        rpo = self.body.reverse_postorder()
        predecessors = self.body.predecessors()
        loop_heads = set(self.body.loop_heads())
        join_blocks = {
            block_id
            for block_id in rpo
            if len(predecessors[block_id]) > 1 or block_id in loop_heads
        }

        from repro.mir.ir import immediate_dominators

        self._idom = immediate_dominators(self.body)
        self._exit_states: Dict[int, RefinementState] = {}

        entry_states: Dict[int, RefinementState] = {Body.ENTRY: self.entry_state()}

        for block_id in rpo:
            block = self.body.block(block_id)
            if block_id in join_blocks:
                state = self._join_state(block_id)
            else:
                state = entry_states.get(block_id)
                if state is None:
                    # unreachable block
                    continue
            entry_snapshot = state.copy()
            exit_state = self.check_block(block, state)
            self._exit_states[block_id] = (exit_state or state).copy()
            if exit_state is None:
                continue
            for successor, extra_fact, flowed in self._outgoing(block, exit_state):
                if extra_fact is not None:
                    flowed.assume(extra_fact)
                if successor in join_blocks:
                    self._flow_into_join(successor, flowed)
                else:
                    entry_states[successor] = flowed
        return CheckOutput(self.constraints, self.kvar_decls, len(self.kvar_decls))

    def _outgoing(self, block: Block, exit_state: RefinementState):
        """Successor edges with the per-edge path condition and flowed state."""
        terminator = block.terminator
        if isinstance(terminator, Goto):
            yield terminator.target, None, exit_state.copy()
        elif isinstance(terminator, SwitchBool):
            condition = self._bool_condition(exit_state, terminator.operand)
            yield terminator.then_target, condition, exit_state.copy()
            yield terminator.else_target, not_(condition), exit_state.copy()
        elif isinstance(terminator, CallTerm):
            yield terminator.target, None, exit_state.copy()
        elif isinstance(terminator, SwitchVariant):
            for variant_name, bindings, target in terminator.arms:
                arm_state = exit_state.copy()
                self._bind_variant_arm(arm_state, terminator, variant_name, bindings)
                yield target, None, arm_state
        # ReturnTerm has no successors

    def _bool_condition(self, state: RefinementState, operand: Operand) -> Expr:
        rtype = self.type_of_operand(state, operand)
        rtype = self.unpack(state, rtype, hint="c")
        if isinstance(rtype, RIndexed) and isinstance(rtype.base, BTBool) and rtype.indices:
            return rtype.indices[0]
        return TRUE

    # -------------------------------------------------------------- joins and templates

    def _join_state(self, block_id: int) -> RefinementState:
        state = self._join_states.get(block_id)
        if state is None:
            raise FluxError(
                f"{self.body.name}: join block bb{block_id} reached before any predecessor "
                "(irreducible control flow is not supported)"
            )
        return state

    def _flow_into_join(self, block_id: int, incoming: RefinementState) -> None:
        if block_id not in self._join_templates:
            self._build_join_template(block_id, incoming)
        template = self._join_templates[block_id]

        # Map every template index binder to its value on *this* edge, so that
        # κ applications mentioning other locals' indices become closed
        # predicates over the incoming state.
        binder_values: Dict[str, Expr] = {}
        for local, expected in template.items():
            payload = expected.inner if isinstance(expected, RRef) else expected
            if not isinstance(payload, RExists):
                continue
            actual = incoming.env.get(local)
            indices = self._edge_indices(incoming, actual)
            if indices is None:
                continue
            for (name, _), value in zip(payload.binders, indices):
                binder_values.setdefault(name, value)

        # A template binder with no value on this edge (its local is not yet
        # initialised here) still occurs inside the other templates' κ
        # applications.  Bind it universally — with its declared sort — so the
        # emitted clauses stay closed and correctly sorted; qualifiers over it
        # then survive only if they hold for every value, which is exactly the
        # join semantics for an unknown input.
        bound = {name for name, _ in incoming.binders}
        for local, expected in template.items():
            payload = expected.inner if isinstance(expected, RRef) else expected
            if not isinstance(payload, RExists):
                continue
            for name, sort in payload.binders:
                if name not in binder_values and name not in bound:
                    bound.add(name)
                    incoming.bind(name, sort)

        for local, expected in template.items():
            actual = incoming.env.get(local)
            if actual is None or isinstance(actual, RUninit):
                continue
            expected = self._close_foreign_binders(expected, binder_values)
            self._check_edge(incoming, local, actual, expected, block_id)

    def _edge_indices(
        self, incoming: RefinementState, actual: Optional[RType]
    ) -> Optional[Tuple[Expr, ...]]:
        if actual is None:
            return None
        if isinstance(actual, RPtr):
            actual = incoming.env.get(actual.target, UNINIT)
        if isinstance(actual, RRef):
            actual = actual.inner
        if isinstance(actual, RExists):
            actual = self.unpack(incoming, actual, hint="e")
        if isinstance(actual, RIndexed):
            return actual.indices
        return None

    def _close_foreign_binders(self, expected: RType, binder_values: Dict[str, Expr]) -> RType:
        """Substitute the values of *other* templates' binders into ``expected``."""
        if isinstance(expected, RRef):
            return RRef(expected.kind, self._close_foreign_binders(expected.inner, binder_values))
        if isinstance(expected, RExists):
            own = {name for name, _ in expected.binders}
            mapping = {name: value for name, value in binder_values.items() if name not in own}
            return subst_rtype(expected, mapping)
        return expected

    def _check_edge(
        self,
        incoming: RefinementState,
        local: str,
        actual: RType,
        expected: RType,
        block_id: int,
    ) -> None:
        tag = f"join bb{block_id} for {local}"
        if isinstance(expected, RPtr):
            return  # same strong pointer on every edge; nothing to check
        if isinstance(expected, RRef) and isinstance(actual, RPtr):
            # weaken the borrow: the pointed-to place must satisfy (and adopt)
            # the template's inner type — rule T-bsmut with an inferred bound
            target_type = incoming.env.get(actual.target, UNINIT)
            self.check_subtype(incoming, target_type, expected.inner, tag)
            return
        if isinstance(expected, RRef) and isinstance(actual, RRef):
            self.check_subtype(incoming, actual, expected, tag)
            return
        self.check_subtype(incoming, actual, expected, tag)

    def _build_join_template(self, block_id: int, first_incoming: RefinementState) -> None:
        """Shape inference (§4.2 phase 1) for a join/loop-head block."""
        tracked = [
            local
            for local, rtype in first_incoming.env.items()
            if not isinstance(rtype, RUninit)
        ]

        # The logical context of a join block is that of its immediate
        # dominator: exactly the facts that hold on *every* path into the
        # join (branch conditions and branch-local unpackings are excluded).
        state = RefinementState()
        dominator = getattr(self, "_idom", {}).get(block_id)
        dominator_state = getattr(self, "_exit_states", {}).get(dominator)
        if dominator_state is not None:
            state.binders = list(dominator_state.binders)
            state.hypotheses = list(dominator_state.hypotheses)
        else:
            state.binders = list(self._entry_binders)
            state.hypotheses = list(self._entry_hypotheses)

        template: Dict[str, RType] = {}

        # Phase 1: decide the *shape* of every tracked local's template and
        # allocate its fresh index binders.  All binders are created before
        # any κ variable so that every κ can mention every other local's
        # indices — this is what lets liquid inference find relational loop
        # invariants such as ``i <= len(vec)``.
        shapes: Dict[str, Tuple[BaseTy, Tuple[Tuple[str, Sort], ...]]] = {}
        weakened: Dict[str, str] = {}  # strong-pointer local -> shared target key

        for local in tracked:
            rtype = first_incoming.env[local]
            if isinstance(rtype, RPtr) and local in self._mutated_locals:
                target_ty = first_incoming.env.get(rtype.target)
                target_base = base_of(target_ty) if target_ty is not None else None
                if target_base is None:
                    target_base = BTInt()
                # Hint with the pointed-to place's name so counterexamples
                # can report the value under its source-level name.
                hint = self._hint_for(rtype.target, "jv")
                binders = tuple(
                    (fresh_name(hint), sort) for sort in target_base.index_sorts()
                )
                shapes[local] = (target_base, binders)
                weakened[local] = rtype.target
                continue
            if isinstance(rtype, (RPtr, RRef)) or local not in self._mutated_locals:
                continue
            base = base_of(rtype)
            if base is None or not base.index_sorts():
                continue
            hint = self._hint_for(local, "tv")
            binders = tuple((fresh_name(hint), sort) for sort in base.index_sorts())
            shapes[local] = (base, binders)

        all_binders: Tuple[Tuple[str, Sort], ...] = tuple(
            binder for _, binders in shapes.values() for binder in binders
        )

        # Phase 2: build the actual templates, one κ per shaped local over the
        # full scope (its own indices, every other template index, and the
        # function's refinement parameters).
        ordered = [local for local in tracked if local in weakened] + [
            local for local in tracked if local not in weakened
        ]
        for local in ordered:
            rtype = first_incoming.env[local]
            if local not in shapes and dominator_state is not None:
                # untemplated locals keep the type they had at the dominator,
                # whose binders are guaranteed to be in scope here
                rtype = dominator_state.env.get(local, rtype)
            if local in template:
                continue
            if local in shapes:
                base, binders = shapes[local]
                scope = binders + tuple(
                    b for b in all_binders if b not in binders
                ) + tuple(self._entry_binders)
                kvar = self.fresh_kvar(scope)
                shaped = RExists(base, binders, kvar)
                if local in weakened:
                    template[local] = RRef("mut", shaped)
                    template[weakened[local]] = shaped
                else:
                    template[local] = shaped
                continue
            template[local] = rtype

        self._join_templates[block_id] = template

        # Build the state the block body is checked under.  Templates are
        # opened *in place* (their binder names are already globally fresh),
        # and crucially all of them share one scope so that a κ for one local
        # may refer to another local's index (relational invariants).
        env: Dict[str, RType] = {}
        opened: Set[str] = set()

        def open_template(rtype: RType) -> RType:
            if not isinstance(rtype, RExists):
                return rtype
            index_vars = tuple(Var(name, sort) for name, sort in rtype.binders)
            for name, sort in rtype.binders:
                if name not in opened:
                    opened.add(name)
                    state.binders.append((name, sort))
            state.assume(rtype.pred)
            for fact in base_invariants(rtype.base, index_vars):
                state.assume(fact)
            return RIndexed(rtype.base, index_vars)

        for local, rtype in template.items():
            if isinstance(rtype, RRef) and isinstance(rtype.inner, RExists):
                # the reference keeps its existential payload (weak updates
                # must preserve it); the payload is opened only where the
                # pointed-to place itself is tracked (shared template).
                env[local] = rtype
            elif isinstance(rtype, RExists):
                env[local] = open_template(rtype)
            else:
                env[local] = rtype
        state.env = env
        self._join_states[block_id] = state

    # -------------------------------------------------------------- block body

    def check_block(self, block: Block, state: RefinementState) -> Optional[RefinementState]:
        for statement in block.statements:
            if statement.span is not None:
                self._current_span = statement.span
            self.check_statement(state, statement)
        terminator = block.terminator
        terminator_span = getattr(terminator, "span", None)
        if terminator_span is not None:
            self._current_span = terminator_span
        if isinstance(terminator, ReturnTerm):
            self.check_return(state, terminator)
            return None
        if isinstance(terminator, CallTerm):
            self.check_call(state, terminator)
        return state

    # -------------------------------------------------------------- statements

    def check_statement(self, state: RefinementState, statement: AssignStatement) -> None:
        value_type = self.type_of_rvalue(state, statement.rvalue)
        self.assign_place(state, statement.place, value_type, tag=f"assignment to {statement.place}")

    def _open_shared_ref(self, state: RefinementState, rtype: RType, hint: str = "r") -> RType:
        """Open the payload of a *shared* reference.

        The pointee of a ``&T`` cannot be mutated while the borrow is live, so
        its existential index can be fixed once; this lets facts flow between
        separate uses of the reference (e.g. ``v.len()`` and ``v.get(i)``).
        Mutable references keep their existential payload — it is the
        invariant that writes must preserve.
        """
        if isinstance(rtype, RRef) and rtype.kind == "shr" and isinstance(rtype.inner, RExists):
            return RRef("shr", self.unpack(state, rtype.inner, hint=hint))
        return rtype

    def assign_place(self, state: RefinementState, place: Place, value: RType, tag: str) -> None:
        if place.is_local:
            if isinstance(value, (RPtr, RRef)):
                state.env[place.local] = self._open_shared_ref(
                    state, value, hint=self._hint_for(place.local, "r")
                )
            else:
                state.env[place.local] = self.unpack(
                    state, value, hint=self._hint_for(place.local, "x")
                )
            return
        # Resolve the prefix place (everything but the last projection).
        prefix = Place(place.local, place.projections[:-1])
        last = place.projections[-1]
        if last == ("deref",):
            holder = self._resolve_place_for_write(state, prefix)
            if isinstance(holder, RPtr):
                self.assign_place(state, Place(holder.target), value, tag)
                return
            if isinstance(holder, RRef):
                if holder.kind != "mut":
                    self.emit(state, c_pred(FALSE, tag=f"{tag}: write through shared reference"))
                    return
                self.check_subtype(state, value, holder.inner, tag)
                return
            self.emit(state, c_pred(FALSE, tag=f"{tag}: write through non-reference"))
            return
        # field write: weak update against the declared field type
        _, field_name = last
        owner = self.type_of_place(state, prefix)
        owner = self.unpack(state, owner, hint="o")
        field_type = self._field_type(owner, field_name)
        self.check_subtype(state, value, field_type, tag)

    def _resolve_place_for_write(self, state: RefinementState, place: Place) -> RType:
        """Type of the place holding the reference being written through."""
        rtype = state.env.get(place.local, UNINIT)
        for projection in place.projections:
            if projection == ("deref",):
                if isinstance(rtype, RPtr):
                    rtype = state.env.get(rtype.target, UNINIT)
                elif isinstance(rtype, RRef):
                    rtype = rtype.inner
                else:
                    break
            else:
                rtype = self._field_type(self.unpack(state, rtype), projection[1])
        return rtype

    # -------------------------------------------------------------- places and operands

    def type_of_place(self, state: RefinementState, place: Place) -> RType:
        rtype = state.env.get(place.local)
        if rtype is None:
            rtype = UNINIT
        for projection in place.projections:
            if projection == ("deref",):
                rtype = self._deref_once(state, rtype)
            else:
                rtype = self.unpack(state, rtype, hint="p")
                rtype = self._field_type(rtype, projection[1])
        return rtype

    def _deref_once(self, state: RefinementState, rtype: RType) -> RType:
        if isinstance(rtype, RPtr):
            return state.env.get(rtype.target, UNINIT)
        if isinstance(rtype, RRef):
            return rtype.inner
        base = base_of(rtype)
        if isinstance(base, BTAdt) and base.name == "Box" and base.args:
            return base.args[0]
        return rtype

    def _field_type(self, owner: RType, field_name: str) -> RType:
        base = base_of(owner)
        # auto-deref through references and boxes
        seen = 0
        current = owner
        while base is None or (isinstance(base, BTAdt) and base.name == "Box"):
            if isinstance(current, RRef):
                current = current.inner
            elif isinstance(base, BTAdt) and base.name == "Box" and base.args:
                current = base.args[0]
            else:
                break
            base = base_of(current)
            seen += 1
            if seen > 8:
                break
        if not isinstance(base, BTAdt):
            raise FluxError(f"field access {field_name!r} on non-struct type {owner}")
        info = self.genv.adt(base.name)
        mapping: Dict[str, Expr] = {}
        indices: Tuple[Expr, ...] = ()
        if isinstance(current, RIndexed):
            indices = current.indices
        for (param_name, _), index in zip(info.sorts, indices):
            mapping[param_name] = index
        generic_map = {
            name: arg for name, arg in zip(info.generics, base.args)
        }
        for name, rtype in info.fields:
            if name == field_name:
                return subst_type_params(subst_rtype(rtype, mapping), generic_map)
        raise FluxError(f"struct {base.name} has no field {field_name!r}")

    def type_of_operand(self, state: RefinementState, operand: Operand) -> RType:
        if isinstance(operand, ConstOperand):
            value = operand.value
            if value is None:
                return UNIT
            if isinstance(value, bool):
                return RIndexed(BTBool(), (BoolConst(value),))
            if isinstance(value, int):
                base_name = "i32"
                return RIndexed(BTInt(base_name), (IntConst(value),))
            if isinstance(value, float):
                return RIndexed(BTFloat(), ())
            raise FluxError(f"unsupported constant {value!r}")
        return self.type_of_place(state, operand.place)

    # -------------------------------------------------------------- rvalues

    def type_of_rvalue(self, state: RefinementState, rvalue: Rvalue) -> RType:
        if isinstance(rvalue, UseRv):
            return self.type_of_operand(state, rvalue.operand)
        if isinstance(rvalue, BinRv):
            return self._binary_type(state, rvalue)
        if isinstance(rvalue, UnRv):
            operand = self.unpack(state, self.type_of_operand(state, rvalue.operand))
            if rvalue.op == "!" and isinstance(operand, RIndexed) and operand.indices:
                return RIndexed(BTBool(), (not_(operand.indices[0]),))
            if rvalue.op == "-" and isinstance(operand, RIndexed) and operand.indices:
                from repro.logic.expr import neg

                return RIndexed(operand.base, (neg(operand.indices[0]),))
            return unrefined(base_of(operand) or BTInt())
        if isinstance(rvalue, RefRv):
            return self._borrow_type(state, rvalue)
        if isinstance(rvalue, AggregateRv):
            return self._aggregate_type(state, rvalue)
        raise FluxError(f"unsupported rvalue {rvalue!r}")

    def _binary_type(self, state: RefinementState, rvalue: BinRv) -> RType:
        lhs = self.unpack(state, self.type_of_operand(state, rvalue.lhs), hint="l")
        rhs = self.unpack(state, self.type_of_operand(state, rvalue.rhs), hint="r")
        lhs_base, rhs_base = base_of(lhs), base_of(rhs)
        op = rvalue.op

        if isinstance(lhs_base, BTFloat) or isinstance(rhs_base, BTFloat):
            if op in ("==", "!=", "<", "<=", ">", ">="):
                return unrefined(BTBool())
            return RIndexed(BTFloat(), ())

        lhs_index = lhs.indices[0] if isinstance(lhs, RIndexed) and lhs.indices else None
        rhs_index = rhs.indices[0] if isinstance(rhs, RIndexed) and rhs.indices else None
        if lhs_index is None or rhs_index is None:
            if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return unrefined(BTBool())
            return unrefined(lhs_base or BTInt())

        if op in ("==", "!=", "<", "<=", ">", ">="):
            logic_op = "=" if op == "==" else op
            return RIndexed(BTBool(), (binop(logic_op, lhs_index, rhs_index),))
        if op in ("&&", "||"):
            return RIndexed(BTBool(), (binop(op, lhs_index, rhs_index),))
        if op in ("+", "-"):
            result_base = lhs_base if isinstance(lhs_base, BTInt) else rhs_base
            return RIndexed(result_base or BTInt(), (binop(op, lhs_index, rhs_index),))
        if op == "*":
            if isinstance(lhs_index, IntConst) or isinstance(rhs_index, IntConst):
                return RIndexed(lhs_base or BTInt(), (binop("*", lhs_index, rhs_index),))
            return unrefined(lhs_base or BTInt())
        if op in ("/", "%"):
            return self._division_type(state, lhs, rhs, lhs_index, rhs_index, op)
        return unrefined(lhs_base or BTInt())

    def _division_type(
        self,
        state: RefinementState,
        lhs: RType,
        rhs: RType,
        lhs_index: Expr,
        rhs_index: Expr,
        op: str,
    ) -> RType:
        """Division/remainder by a positive constant: introduce the floor facts.

        Rust's integer division truncates toward zero, which coincides with
        floor division for non-negative dividends; the facts are only assumed
        when the dividend is known non-negative (unsigned type).
        """
        base = base_of(lhs) or BTInt()
        dividend_unsigned = isinstance(base, BTInt) and base.unsigned
        if not isinstance(rhs_index, IntConst) or rhs_index.value <= 0 or not dividend_unsigned:
            return unrefined(base)
        divisor = rhs_index.value
        result = fresh_name("q" if op == "/" else "rem")
        result_var = state.bind(result, INT)
        if op == "/":
            # divisor*q <= dividend < divisor*q + divisor
            state.assume(le(binop("*", IntConst(divisor), result_var), lhs_index))
            state.assume(lt(lhs_index, binop("+", binop("*", IntConst(divisor), result_var), IntConst(divisor))))
            state.assume(ge(result_var, 0))
        else:
            state.assume(ge(result_var, 0))
            state.assume(lt(result_var, IntConst(divisor)))
        return RIndexed(base, (result_var,))

    def _borrow_type(self, state: RefinementState, rvalue: RefRv) -> RType:
        place = rvalue.place
        if rvalue.mutable:
            if place.is_local:
                return RPtr(place.local)
            # reborrow or borrow of a projected place: weak view
            target = self.type_of_place(state, place)
            if isinstance(target, RPtr):
                return target
            if isinstance(target, RRef):
                return target
            return RRef("mut", target)
        target = self.type_of_place(state, place)
        if isinstance(target, RRef):
            return RRef("shr", target.inner)
        if isinstance(target, RPtr):
            return RRef("shr", state.env.get(target.target, UNINIT))
        return RRef("shr", target)

    def _aggregate_type(self, state: RefinementState, rvalue: AggregateRv) -> RType:
        info = self.genv.adt(rvalue.adt)
        actuals = [
            self.unpack(state, self.type_of_operand(state, operand), hint="f")
            for operand in rvalue.operands
        ]
        if rvalue.variant is None:
            formals_by_name = dict(info.fields)
            ordered_formals = [formals_by_name[name] for name in rvalue.field_names]
        else:
            variant = info.variant(rvalue.variant)
            ordered_formals = list(variant.fields)

        # Instantiate the ADT's refinement parameters and generics by unification.
        refinement_subst: Dict[str, Expr] = {}
        generic_map: Dict[str, RType] = {}
        refinement_param_names = (
            {name for name, _ in info.sorts}
            if rvalue.variant is None
            else {name for name, _ in info.variant(rvalue.variant).refinement_params}
        )
        for formal, actual in zip(ordered_formals, actuals):
            self._unify_refinements(formal, actual, refinement_param_names, refinement_subst, state)
            self._unify_generics(formal, actual, set(info.generics), generic_map, state)
        for formal, actual, operand in zip(ordered_formals, actuals, rvalue.operands):
            instantiated = subst_type_params(subst_rtype(formal, refinement_subst), generic_map)
            self.check_subtype(state, actual, instantiated, tag=f"constructing {rvalue.adt}")

        args = tuple(
            generic_map.get(g, unrefined(BTParam(g))) for g in info.generics
        )
        base = BTAdt(rvalue.adt, args, info.index_sorts())
        if rvalue.variant is None:
            indices = tuple(
                refinement_subst.get(name, Var(fresh_name("idx"), sort))
                for name, sort in info.sorts
            )
        else:
            variant = info.variant(rvalue.variant)
            indices = tuple(
                substitute(index, refinement_subst) for index in variant.ret_indices
            )
        return RIndexed(base, indices)

    # -------------------------------------------------------------- calls

    def check_call(self, state: RefinementState, call: CallTerm) -> None:
        func = call.func
        if func.startswith("method:"):
            raise FluxError(f"{self.body.name}: unresolved method call {func}")
        if "::" in func and func not in self.genv.signatures:
            # enum variant constructor used as a function
            enum_name, variant = func.split("::", 1)
            if enum_name in self.genv.adts and self.genv.adt(enum_name).kind == "enum":
                rvalue = AggregateRv(enum_name, variant, tuple(call.args))
                result = self._aggregate_type(state, rvalue)
                self.assign_place(state, call.destination, result, tag=f"call {func}")
                return
        signature = self.genv.signature(func)
        self._apply_signature(state, call, signature)

    def _apply_signature(
        self, state: RefinementState, call: CallTerm, signature: FluxSignature
    ) -> None:
        func = signature.name
        actual_types: List[RType] = []
        for index, operand in enumerate(call.args):
            actual = self.type_of_operand(state, operand)
            formal = signature.param_types[index] if index < len(signature.param_types) else None
            # Method-call receivers (and arguments) are auto-borrowed by rustc:
            # `vec.push(x)` passes `&mut vec`.  When the formal expects a
            # reference and the actual is an owned place, borrow it here.
            if (
                isinstance(formal, RRef)
                and formal.kind == "mut"
                and not isinstance(actual, (RRef, RPtr))
                and isinstance(operand, PlaceOperand)
            ):
                if operand.place.is_local:
                    actual = RPtr(operand.place.local)
                else:
                    actual = RRef("mut", actual)
            elif (
                isinstance(formal, RRef)
                and formal.kind == "shr"
                and not isinstance(actual, (RRef, RPtr))
            ):
                actual = RRef("shr", actual)
            actual_types.append(actual)

        # A "view" of each actual for unification and the forward (argument)
        # direction: strong pointers appear as mutable references to their
        # target's current type, and existential reference payloads are opened
        # once so that the opened binder is shared between parameter binding
        # and the subtyping checks.  The original (un-opened) payload is kept
        # for the preservation direction of mutable references.
        actual_views: List[RType] = []
        preserved_inners: List[Optional[RType]] = []
        for actual in actual_types:
            view = self._view_for_unification(state, actual)
            preserved: Optional[RType] = None
            if isinstance(view, RRef):
                preserved = view.inner
                if isinstance(view.inner, RExists):
                    view = RRef(view.kind, self.unpack(state, view.inner, hint="arg"))
            actual_views.append(view)
            preserved_inners.append(preserved)

        refinement_subst: Dict[str, Expr] = {}
        generic_map: Dict[str, RType] = {}
        refinement_params = {name for name, _ in signature.refinement_params}

        # Pass 1: bind refinement parameters and generic type parameters.
        for index, (formal, view) in enumerate(zip(signature.param_types, actual_views)):
            self._unify_refinements(formal, view, refinement_params, refinement_subst, state)
            self._unify_generics(formal, view, set(signature.generics), generic_map, state)

        # Unbound generics (e.g. RVec::new): instantiate from the destination's
        # Rust type with fresh κ templates — polymorphic instantiation, §4.3.
        for generic in signature.generics:
            if generic not in generic_map:
                generic_map[generic] = self._template_from_rust(
                    state, self._destination_element_hint(call, signature, generic)
                )
        # Unbound refinement parameters default to fresh unconstrained values.
        for name, sort in signature.refinement_params:
            if name not in refinement_subst:
                fresh = fresh_name(name)
                state.bind(fresh, sort)
                refinement_subst[name] = Var(fresh, sort)

        def instantiate(rtype: RType) -> RType:
            return subst_type_params(subst_rtype(rtype, refinement_subst), generic_map)

        # Signature-level requirements on refinement parameters (from
        # ``B[@n]{v: pred}`` argument types) are obligations of the caller.
        for constraint in signature.requires:
            self.emit(
                state,
                c_pred(substitute(constraint, refinement_subst), tag=f"call {func} requires"),
            )

        # Pass 2: argument subtyping (and borrow weakening / strong updates).
        for index, (formal, actual, operand) in enumerate(
            zip(signature.param_types, actual_types, call.args)
        ):
            formal_inst = instantiate(formal)
            strong = signature.strong_params[index]
            tag = f"call {func} argument {index + 1}"
            self._check_argument(
                state,
                formal_inst,
                actual,
                operand,
                strong,
                tag,
                view=actual_views[index],
                preserved_inner=preserved_inners[index],
            )

        # Result.
        result_type = instantiate(signature.ret)
        self.assign_place(state, call.destination, result_type, tag=f"call {func} result")

        # Ensures clauses: strong updates of the places passed by strong reference.
        for param_name, new_type in signature.ensures:
            if param_name not in signature.param_names:
                raise FluxError(f"{func}: ensures clause mentions unknown parameter {param_name}")
            position = signature.param_names.index(param_name)
            operand = call.args[position]
            actual = actual_types[position]
            if isinstance(actual, RPtr):
                state.env[actual.target] = self.unpack(
                    state, instantiate(new_type), hint=self._hint_for(actual.target, "s")
                )
            else:
                self.emit(
                    state,
                    c_pred(
                        FALSE,
                        tag=(
                            f"call {func}: argument {param_name} must be a strong reference "
                            "(the location it points to is not statically known)"
                        ),
                    ),
                )

    def _view_for_unification(self, state: RefinementState, actual: RType) -> RType:
        """Strong pointers behave as mutable references to their target's type."""
        if isinstance(actual, RPtr):
            return RRef("mut", state.env.get(actual.target, UNINIT))
        return actual

    def _destination_element_hint(
        self, call: CallTerm, signature: FluxSignature, generic: str
    ) -> Optional[ast.Type]:
        """Rust-level hint for an unbound generic, taken from the destination type."""
        dest_rust = self.body.local_types.get(call.destination.local)
        ret = signature.ret
        # If the return type is Adt<..., T, ...>, pick the matching Rust argument.
        ret_base = base_of(ret)
        if isinstance(ret_base, BTAdt) and isinstance(dest_rust, ast.TyName):
            for position, arg in enumerate(ret_base.args):
                arg_base = base_of(arg)
                if isinstance(arg_base, BTParam) and arg_base.name == generic:
                    if position < len(dest_rust.args):
                        return dest_rust.args[position]
        if isinstance(ret_base, BTParam) and ret_base.name == generic:
            return dest_rust
        return None

    def _template_from_rust(self, state: RefinementState, rust_ty: Optional[ast.Type]) -> RType:
        if rust_ty is None:
            return unrefined(BTParam("?"))
        rtype = self.genv.rust_type_to_rtype(rust_ty)
        return self._kvar_template_for(state, rtype)

    def _kvar_template_for(self, state: RefinementState, rtype: RType) -> RType:
        base = base_of(rtype)
        if base is None or not base.index_sorts():
            if isinstance(rtype, RRef):
                return RRef(rtype.kind, self._kvar_template_for(state, rtype.inner))
            return rtype if not isinstance(rtype, RExists) else RIndexed(rtype.base, ())
        binders = tuple((fresh_name("pv"), sort) for sort in base.index_sorts())
        scope = binders + tuple(state.binders)
        kvar = self.fresh_kvar(scope)
        return RExists(base, binders, kvar)

    def _check_argument(
        self,
        state: RefinementState,
        formal: RType,
        actual: RType,
        operand: Operand,
        strong: bool,
        tag: str,
        view: Optional[RType] = None,
        preserved_inner: Optional[RType] = None,
    ) -> None:
        view = view if view is not None else self._view_for_unification(state, actual)
        if strong:
            assert isinstance(formal, RRef)
            if not isinstance(actual, RPtr):
                self.emit(
                    state,
                    c_pred(FALSE, tag=f"{tag}: expected a strong reference to a known place"),
                )
                return
            target_type = state.env.get(actual.target, UNINIT)
            self.check_subtype(state, target_type, formal.inner, tag)
            return
        if isinstance(formal, RRef) and formal.kind == "mut":
            if not isinstance(view, RRef):
                self.emit(state, c_pred(FALSE, tag=f"{tag}: expected a mutable reference"))
                return
            self.check_subtype(state, view.inner, formal.inner, tag)
            if isinstance(actual, RPtr):
                # Strong pointer coerced to &mut T: the borrow weakens the
                # pointed-to place to exactly T (T-bsmut), so no separate
                # preservation obligation arises.
                state.env[actual.target] = self.unpack(
                    state, formal.inner, hint=self._hint_for(actual.target, "p")
                )
                return
            # Preservation: after the call the location still has the callee's
            # formal type, which must continue to satisfy the reference's
            # declared invariant (the original, possibly κ-refined, payload).
            preserved = preserved_inner if preserved_inner is not None else view.inner
            self.check_subtype(state, formal.inner, preserved, f"{tag} (preservation)")
            return
        if isinstance(formal, RRef) and formal.kind == "shr":
            if isinstance(view, RRef):
                self.check_subtype(state, view.inner, formal.inner, tag)
                return
            self.check_subtype(state, view, formal.inner, tag)
            return
        self.check_subtype(state, view, formal, tag)

    # -------------------------------------------------------------- variants

    def _bind_variant_arm(
        self,
        state: RefinementState,
        terminator: SwitchVariant,
        variant_name: str,
        bindings: Tuple[str, ...],
    ) -> None:
        if variant_name == "_":
            return
        scrutinee = self.type_of_place(state, terminator.place)
        behind_mut = False
        behind_ref = False
        current = scrutinee
        for _ in range(8):
            if isinstance(current, RRef):
                behind_ref = True
                behind_mut = behind_mut or current.kind == "mut"
                current = current.inner
                continue
            if isinstance(current, RPtr):
                behind_ref = True
                behind_mut = True
                current = state.env.get(current.target, UNINIT)
                continue
            base = base_of(current)
            if isinstance(base, BTAdt) and base.name == "Box" and base.args:
                current = base.args[0]
                continue
            break
        current = self.unpack(state, current, hint="scrut")
        base = base_of(current)
        if not isinstance(base, BTAdt):
            return
        info = self.genv.adt(base.name)
        if info.kind != "enum":
            return
        variant = info.variant(variant_name)
        mapping: Dict[str, Expr] = {}
        for name, sort in variant.refinement_params:
            fresh = fresh_name(name.split("%")[0] or "m")
            state.bind(fresh, sort)
            mapping[name] = Var(fresh, sort)
        generic_map = {g: arg for g, arg in zip(info.generics, base.args)}
        # connect the scrutinee's indices to the variant's result indices
        if isinstance(current, RIndexed):
            for scrut_index, ret_index in zip(current.indices, variant.ret_indices):
                state.assume(eq(scrut_index, substitute(ret_index, mapping)))
        for binding, field_type in zip(bindings, variant.fields):
            if binding == "_":
                continue
            bound = subst_type_params(subst_rtype(field_type, mapping), generic_map)
            if behind_ref:
                bound = RRef("mut" if behind_mut else "shr", bound)
                state.env[binding] = bound
            else:
                state.env[binding] = self.unpack(state, bound, hint=binding)

    # -------------------------------------------------------------- return

    def check_return(self, state: RefinementState, terminator: ReturnTerm) -> None:
        declared = self.signature.ret
        declared_is_unit = isinstance(declared, RIndexed) and isinstance(declared.base, BTUnit)
        if terminator.operand is not None and not declared_is_unit and not isinstance(declared, RUninit):
            actual = self.type_of_operand(state, terminator.operand)
            self.check_subtype(state, self._view_for_unification(state, actual), declared, "return")
        for param_name, expected in self.signature.ensures:
            position = self.signature.param_names.index(param_name)
            local = self.signature.param_names[position]
            holder = state.env.get(local)
            if isinstance(holder, RPtr):
                actual = state.env.get(holder.target, UNINIT)
                self.check_subtype(state, actual, expected, f"ensures *{param_name}")
            else:
                self.emit(
                    state,
                    c_pred(FALSE, tag=f"ensures *{param_name}: strong reference was lost"),
                )

    # -------------------------------------------------------------- unification helpers

    def _unify_refinements(
        self,
        formal: RType,
        actual: RType,
        params: Set[str],
        subst: Dict[str, Expr],
        state: RefinementState,
    ) -> None:
        """Bind ``@n`` refinement parameters by matching index positions (§4.1)."""
        if isinstance(formal, RRef) and isinstance(actual, RRef):
            self._unify_refinements(formal.inner, actual.inner, params, subst, state)
            return
        if isinstance(formal, RRef) and isinstance(actual, RPtr):
            target = state.env.get(actual.target, UNINIT)
            self._unify_refinements(formal.inner, target, params, subst, state)
            return
        formal_base = base_of(formal)
        if formal_base is None:
            return
        needs_binding = isinstance(formal, RIndexed) and any(
            isinstance(index, Var) and index.name in params and index.name not in subst
            for index in formal.indices
        )
        actual_opened = actual
        if isinstance(actual_opened, RExists) and needs_binding:
            # Only open the existential when an index is actually required for
            # parameter binding: opening asserts the (possibly vacuous)
            # existence of a witness, which must not leak into the context
            # otherwise.
            actual_opened = self.unpack(state, actual_opened, hint="u")
        actual_base = base_of(actual_opened)
        if actual_base is None:
            return
        if isinstance(formal, RIndexed) and isinstance(actual_opened, RIndexed):
            for formal_index, actual_index in zip(formal.indices, actual_opened.indices):
                if (
                    isinstance(formal_index, Var)
                    and formal_index.name in params
                    and formal_index.name not in subst
                ):
                    subst[formal_index.name] = actual_index
        if isinstance(formal_base, BTAdt) and isinstance(actual_base, BTAdt):
            for formal_arg, actual_arg in zip(formal_base.args, actual_base.args):
                self._unify_refinements(formal_arg, actual_arg, params, subst, state)

    def _unify_generics(
        self,
        formal: RType,
        actual: RType,
        generics: Set[str],
        generic_map: Dict[str, RType],
        state: RefinementState,
    ) -> None:
        if isinstance(formal, RRef) and isinstance(actual, RRef):
            self._unify_generics(formal.inner, actual.inner, generics, generic_map, state)
            return
        if isinstance(formal, RRef) and isinstance(actual, RPtr):
            target = state.env.get(actual.target, UNINIT)
            self._unify_generics(formal.inner, target, generics, generic_map, state)
            return
        formal_base = base_of(formal)
        if isinstance(formal_base, BTParam) and formal_base.name in generics:
            if formal_base.name not in generic_map:
                generic_map[formal_base.name] = self._kvar_template_for(state, actual)
            return
        actual_base = base_of(actual)
        if isinstance(formal_base, BTAdt) and isinstance(actual_base, BTAdt):
            for formal_arg, actual_arg in zip(formal_base.args, actual_base.args):
                self._unify_generics(formal_arg, actual_arg, generics, generic_map, state)
