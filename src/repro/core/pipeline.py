"""End-to-end verification pipeline.

``verify_source`` runs the three phases of §4 for every function in a
MiniRust source file:

1. *spatial/elaboration* — parse, lower to MIR, run Rust-level type
   inference, and elaborate the ``#[flux::sig]`` attributes;
2. *checking* — generate Horn constraints with κ variables for the unknown
   refinements (loop invariants, join templates, polymorphic instantiations);
3. *inference* — solve the constraints with the liquid fixpoint solver and
   report any obligation that remains invalid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lang import ast, parse_program
from repro.mir.lower import lower_function
from repro.mir.typeinfer import ProgramTypes, infer_types
from repro.fixpoint import FixpointSolver
from repro.fixpoint.constraint import c_conj
from repro.fixpoint.solve import DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED, WORKER_CRASHED
from repro.core.checker import Checker
from repro.core.errors import Counterexample, Diagnostic, FluxError
from repro.core.genv import GlobalEnv
from repro.diagnostics.counterexample import counterexample_from_model
from repro.obs import span as obs_span
from repro.smt import SmtContext, use_context

#: Solver-metric keys every :class:`FunctionResult` carries, in report order.
#: The dict replaces what used to be individual ``smt_*`` dataclass fields; the keys
#: keep the old field names so cached payloads and JSON reports are stable,
#: and matching read-only attribute aliases are installed below.
FUNCTION_METRIC_KEYS = (
    "smt_queries",
    "smt_from_scratch",
    "smt_assumption_checks",
    "smt_incremental_hits",
    "smt_clauses_retained",
    "smt_batched_checks",
    "smt_theory_propagations",
    "smt_partial_checks",
    "smt_core_shrink_rounds",
    "smt_shrink_budget_hits",
    "smt_explanations",
    "smt_explanation_literals",
    "smt_phase_saving_hits",
    "smt_sat_time",
    "smt_theory_time",
)


def metrics_from_fixpoint(fixpoint_result) -> Dict[str, float]:
    """The per-function metrics view of one fixpoint run."""
    return {
        "smt_queries": fixpoint_result.smt_queries,
        "smt_from_scratch": fixpoint_result.from_scratch_solves,
        "smt_assumption_checks": fixpoint_result.assumption_checks,
        "smt_incremental_hits": fixpoint_result.incremental_hits,
        "smt_clauses_retained": fixpoint_result.clauses_retained,
        "smt_batched_checks": fixpoint_result.batched_checks,
        "smt_theory_propagations": fixpoint_result.theory_propagations,
        "smt_partial_checks": fixpoint_result.partial_checks,
        "smt_core_shrink_rounds": fixpoint_result.core_shrink_rounds,
        "smt_shrink_budget_hits": fixpoint_result.shrink_budget_hits,
        "smt_explanations": fixpoint_result.explanations,
        "smt_explanation_literals": fixpoint_result.explanation_literals,
        "smt_phase_saving_hits": fixpoint_result.sat_phase_saving_hits,
        "smt_sat_time": fixpoint_result.sat_time,
        "smt_theory_time": fixpoint_result.theory_time,
    }


@dataclass
class FunctionResult:
    """Verification outcome for a single function.

    Solver activity lives in ``metrics`` (keys :data:`FUNCTION_METRIC_KEYS`,
    absent means zero); ``result.smt_queries`` and friends remain readable
    through the attribute aliases installed after the class definition.
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
FAULT_TAGS = (WORKER_CRASHED, DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED)


def fault_result(name: str, kind: str, detail: str = "", elapsed: float = 0.0) -> FunctionResult:
    """A structured not-ok verdict for a function lost to ``kind``."""

    diagnostic = Diagnostic(function=name, tag=kind, message=detail)
    return FunctionResult(name=name, ok=False, diagnostics=[diagnostic], time=elapsed)


def is_fault_result(result: "FunctionResult") -> bool:
    """Whether ``result`` reports an execution fault rather than a verdict."""

    return any(diag.tag in FAULT_TAGS for diag in result.diagnostics)


def _metric_alias(key: str) -> property:
    return property(lambda self: self.metrics.get(key, 0))


for _key in FUNCTION_METRIC_KEYS:
    setattr(FunctionResult, _key, _metric_alias(_key))
del _key


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


def verify_source(
    source: str,
    only: Optional[Sequence[str]] = None,
    extra_sources: Sequence[str] = (),
) -> VerificationResult:
    """Parse and verify a MiniRust source string.

    ``extra_sources`` provides library code (e.g. the RMat implementation)
    whose signatures should be in scope; library functions are verified too
    unless marked ``#[flux::trusted]``.
    """
    merged = merge_programs([parse_program(text) for text in (*extra_sources, source)])
    return verify_program(merged, only=only)


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


def verify_program(
    program: ast.Program,
    only: Optional[Sequence[str]] = None,
    session: Optional[SmtContext] = None,
) -> VerificationResult:
    started = time.perf_counter()
    genv = GlobalEnv()
    genv.register_program(program)
    rust_context = ProgramTypes.from_program(program)

    result = VerificationResult()
    for fn in program.functions:
        if only is not None and fn.name not in only:
            continue
        signature = genv.signature(fn.name)
        if signature.trusted or fn.body is None:
            result.add(FunctionResult(name=fn.name, ok=True, trusted=True))
            continue
        result.add(_verify_function(fn, genv, rust_context, session=session))
    result.time = time.perf_counter() - started
    return result


def _verify_function(
    fn: ast.FnDef,
    genv: GlobalEnv,
    rust_context: ProgramTypes,
    session: Optional[SmtContext] = None,
) -> FunctionResult:
    """Verify one function, optionally under an explicit SMT context.

    Module-level (and with picklable arguments) so the service scheduler can
    ship it to worker processes.
    """
    if session is None:
        # Run under whatever context is already active (default or one a
        # caller installed with ``use_context``).
        return _verify_function_in_context(fn, genv, rust_context)
    with use_context(session):
        return _verify_function_in_context(fn, genv, rust_context)


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
            metrics=metrics_from_fixpoint(fixpoint_result),
            time=time.perf_counter() - started,
        )
    except FluxError as error:
        return FunctionResult(
            name=name,
            ok=False,
            diagnostics=[Diagnostic(function=name, tag="elaboration", message=str(error))],
            time=time.perf_counter() - started,
        )
