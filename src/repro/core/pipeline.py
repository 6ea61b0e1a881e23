"""Per-function verification and its result types.

:func:`_verify_function` runs the three phases of §4 on one function of an
elaborated program (its ``#[flux::sig]`` attributes already elaborated into
a :class:`~repro.core.genv.GlobalEnv`):

1. *spatial/elaboration* — lower to MIR and run Rust-level type inference;
2. *checking* — generate Horn constraints with κ variables for the unknown
   refinements (loop invariants, join templates, polymorphic instantiations);
3. *inference* — solve the constraints with the liquid fixpoint solver and
   report any obligation that remains invalid.

Programs enter through :mod:`repro.service`, which parses and elaborates
them, consults the result cache, and verifies each remaining function in
its scheduler's fault boundary; ``repro.service.verify_source`` is the
one-call entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lang import ast
from repro.mir.lower import lower_function
from repro.mir.typeinfer import ProgramTypes, infer_types
from repro.fixpoint import FixpointSolver
from repro.fixpoint.constraint import c_conj
from repro.fixpoint.solve import FAULT_KINDS
from repro.core.checker import Checker
from repro.core.errors import Counterexample, Diagnostic, FluxError
from repro.core.genv import GlobalEnv
from repro.core.rtypes import function_fresh_names
from repro.diagnostics.counterexample import counterexample_from_model
from repro.obs import current_obs, span as obs_span
from repro.smt import SmtContext, use_context


@dataclass
class FunctionResult:
    """Verification outcome for a single function.

    ``metrics`` maps every metrics-registry counter the function's
    verification moved to the amount it moved (``smt.*``, ``fixpoint.*``,
    ...; absent means zero).
    """

    name: str
    ok: bool
    diagnostics: List[Diagnostic] = field(default_factory=list)
    num_constraints: int = 0
    num_kvars: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    time: float = 0.0
    trusted: bool = False


#: Diagnostic tags of fault-degraded verdicts: the function was lost to a
#: worker crash, a deadline or a memory ceiling, not refuted by the solver.
#: Such results are never cached (they say nothing about the program) and
#: the chaos harness accepts them as the structured form of an injected
#: fault.
FAULT_TAGS = FAULT_KINDS


def fault_result(name: str, kind: str, detail: str = "", elapsed: float = 0.0) -> FunctionResult:
    """A structured not-ok verdict for a function lost to ``kind``."""

    diagnostic = Diagnostic(function=name, tag=kind, message=detail)
    return FunctionResult(name=name, ok=False, diagnostics=[diagnostic], time=elapsed)


def is_fault_result(result: "FunctionResult") -> bool:
    """Whether ``result`` reports an execution fault rather than a verdict."""

    return any(diag.is_fault for diag in result.diagnostics)


@dataclass
class VerificationResult:
    """Verification outcome for a whole program."""

    functions: List[FunctionResult] = field(default_factory=list)
    time: float = 0.0
    _index: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(fn.ok for fn in self.functions)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [diag for fn in self.functions for diag in fn.diagnostics]

    def add(self, result: FunctionResult) -> None:
        # First match wins on duplicate names (a body-less declaration plus
        # its definition), matching the old linear scan.
        self._index.setdefault(result.name, len(self.functions))
        self.functions.append(result)

    def function(self, name: str) -> FunctionResult:
        # The index is only a cache: callers may mutate ``functions``
        # directly, so validate the indexed slot and rebuild on any mismatch.
        position = self._index.get(name)
        if (
            position is None
            or position >= len(self.functions)
            or self.functions[position].name != name
        ):
            self._index = {}
            for i, fn in enumerate(self.functions):
                self._index.setdefault(fn.name, i)
            position = self._index.get(name)
            if position is None:
                raise KeyError(f"no verification result for {name!r}")
        return self.functions[position]

    def summary(self) -> str:
        lines = []
        for fn in self.functions:
            status = "trusted" if fn.trusted else ("ok" if fn.ok else "ERROR")
            lines.append(
                f"{fn.name:40s} {status:8s} {fn.time:7.3f}s "
                f"constraints={fn.num_constraints} kvars={fn.num_kvars}"
            )
        return "\n".join(lines)


def merge_programs(programs: Sequence[ast.Program]) -> ast.Program:
    """Concatenate parsed programs, rejecting duplicate function definitions.

    Duplicates used to shadow silently (the last registration won in the
    global environment while every copy was verified), which produced
    confusing diagnostics; make it a hard error instead.  Body-less
    extern/trusted *declarations* don't count — declaring a function in one
    source and defining it in a library source stays legal.
    """
    seen: Dict[str, int] = {}
    for program in programs:
        for fn in program.functions:
            if fn.body is None:
                continue
            seen[fn.name] = seen.get(fn.name, 0) + 1
    duplicates = sorted(name for name, count in seen.items() if count > 1)
    if duplicates:
        raise FluxError(f"duplicate function definition(s): {', '.join(duplicates)}")
    return ast.Program(
        functions=tuple(fn for program in programs for fn in program.functions),
        structs=tuple(struct for program in programs for struct in program.structs),
        enums=tuple(enum for program in programs for enum in program.enums),
    )


def definition_map(program: ast.Program) -> Dict[str, ast.FnDef]:
    """Name → definition, preferring a bodied definition over a body-less
    declaration of the same name regardless of source order."""
    fns: Dict[str, ast.FnDef] = {}
    for fn in program.functions:
        current = fns.get(fn.name)
        if current is None or (current.body is None and fn.body is not None):
            fns[fn.name] = fn
    return fns


def _verify_function(
    fn: ast.FnDef, genv: GlobalEnv, rust_context: ProgramTypes, smt_context: SmtContext
) -> FunctionResult:
    """Verify one function under ``smt_context``.

    The result's ``metrics`` are the non-zero counter deltas of the ambient
    metrics registry across this call.  The service scheduler calls it
    inside its fault boundary, in process or in a forked worker that
    inherits the elaborated program.  Fresh binder names come from a
    counter of this call's own, so verifying the same function again
    builds the same terms.
    """
    registry = current_obs().registry
    before = registry.counter_values()
    with use_context(smt_context), function_fresh_names():
        result = _verify_function_in_context(fn, genv, rust_context)
    result.metrics = {
        name: value - before.get(name, 0)
        for name, value in sorted(registry.counter_values().items())
        if value != before.get(name, 0)
    }
    return result


def _verify_function_in_context(
    fn: ast.FnDef, genv: GlobalEnv, rust_context: ProgramTypes
) -> FunctionResult:
    started = time.perf_counter()
    name = fn.name
    try:
        with obs_span("mir_lower", function=name):
            body = lower_function(fn)
            infer_types(body, rust_context)
        signature = genv.signature(name)
        with obs_span("check", function=name):
            checker = Checker(body, genv, signature)
            output = checker.check()
        solver = FixpointSolver()
        for decl in output.kvar_decls.values():
            solver.declare(decl)
        with obs_span("fixpoint", function=name):
            fixpoint_result = solver.solve(c_conj(*output.constraints))
        source_names = set(body.local_types) | set(signature.param_names)
        param_names = {pname for pname, _ in signature.refinement_params}
        diagnostics = []
        for error in fixpoint_result.errors:
            counterexample: Optional[Counterexample] = None
            if error.model:
                counterexample = counterexample_from_model(
                    error.model, error.constraint.binders, source_names, param_names
                )
            diagnostics.append(
                Diagnostic(
                    function=name,
                    tag=error.tag or "unknown obligation",
                    span=error.span,
                    sig_span=signature.span,
                    counterexample=counterexample,
                )
            )
        return FunctionResult(
            name=name,
            ok=not diagnostics,
            diagnostics=diagnostics,
            num_constraints=len(output.constraints),
            num_kvars=output.num_kvars,
            time=time.perf_counter() - started,
        )
    except FluxError as error:
        return FunctionResult(
            name=name,
            ok=False,
            diagnostics=[Diagnostic(function=name, tag="elaboration", message=str(error))],
            time=time.perf_counter() - started,
        )
