"""Counterexample-carrying diagnostics: golden snippets and model soundness.

Two families of tests over deliberately-broken Table-1 variants
(``tests/golden/*.rs``):

* **golden rendering** — the full rustc-style caret snippet (span, source
  line, signature note, counterexample valuation) must match the committed
  ``*.expected.txt`` byte for byte.  Regenerate after an intentional change
  with ``UPDATE_GOLDEN=1 pytest tests/test_diagnostics.py``.
* **model soundness** — every counterexample the solver reports must
  actually falsify its obligation: pinning the model's values onto the
  clause's refutation query must keep it satisfiable.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.service import verify_source
from repro.core.genv import GlobalEnv
from repro.core.rtypes import reset_fresh_names
from repro.diagnostics import model_refutes, render_result
from repro.diagnostics.counterexample import counterexample_from_model
from repro.fixpoint import FixpointSolver
from repro.fixpoint.constraint import c_conj
from repro.core.checker import Checker
from repro.lang import parse_program
from repro.mir.lower import lower_function
from repro.mir.typeinfer import ProgramTypes, infer_types

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    "bsearch_wrong_return",
    "dotprod_length_mismatch",
    "kmeans_init_off_by_one",
    "rmat_get_transposed",
    "wave_translate_strict_bound",
]

_RESULTS = {}


def _verify(case: str):
    """Verify one golden program (memoised — bsearch takes ~20s)."""
    if case not in _RESULTS:
        source = (GOLDEN / f"{case}.rs").read_text()
        # Golden counterexample values must not depend on which tests ran
        # earlier in the process: binder names feed the solver's variable
        # ordering, so pin them.
        reset_fresh_names()
        _RESULTS[case] = (verify_source(source), source)
    return _RESULTS[case]


@pytest.mark.parametrize("case", CASES)
def test_broken_variant_fails_with_counterexample(case):
    result, _ = _verify(case)
    assert not result.ok, f"{case} was expected to fail verification"
    for diagnostic in result.diagnostics:
        assert diagnostic.span is not None, f"{case}: diagnostic without a span"
        assert diagnostic.sig_span is not None, f"{case}: diagnostic without a sig span"
        assert diagnostic.counterexample, f"{case}: diagnostic without a counterexample"
        # integer fragment: every displayed value is an int or a bool
        for name, value in diagnostic.counterexample.bindings:
            assert isinstance(value, (int, bool)), (case, name, value)


@pytest.mark.parametrize("case", CASES)
def test_golden_rendered_snippet(case):
    result, source = _verify(case)
    rendered = render_result(result, source, f"{case}.rs") + "\n"
    expected_path = GOLDEN / f"{case}.expected.txt"
    if os.environ.get("UPDATE_GOLDEN"):
        expected_path.write_text(rendered)
    assert expected_path.exists(), f"missing golden file {expected_path}"
    assert rendered == expected_path.read_text()


def _fixpoint_errors(case: str):
    """Run the checking pipeline by hand so the raw FixpointErrors (with
    their hypotheses/goal/model triples) are observable."""
    source = (GOLDEN / f"{case}.rs").read_text()
    reset_fresh_names()
    program = parse_program(source)
    genv = GlobalEnv()
    genv.register_program(program)
    rust_context = ProgramTypes.from_program(program)
    errors = []
    for fn in program.functions:
        if fn.body is None or genv.signature(fn.name).trusted:
            continue
        body = lower_function(fn)
        infer_types(body, rust_context)
        checker = Checker(body, genv, genv.signature(fn.name))
        output = checker.check()
        solver = FixpointSolver()
        for decl in output.kvar_decls.values():
            solver.declare(decl)
        result = solver.solve(c_conj(*output.constraints))
        errors.extend((fn, body, error) for error in result.errors)
    return errors


@pytest.mark.parametrize(
    "case",
    ["dotprod_length_mismatch", "kmeans_init_off_by_one", "wave_translate_strict_bound"],
)
def test_counterexample_model_falsifies_obligation(case):
    """Model soundness: substituting the reported valuation back into the
    failed clause keeps its refutation satisfiable."""
    errors = _fixpoint_errors(case)
    assert errors, f"{case}: expected at least one fixpoint error"
    for fn, body, error in errors:
        assert error.model, f"{case}/{fn.name}: error without a model"
        assert error.goal is not None
        sorts = dict(error.constraint.binders)
        assert model_refutes(error.hypotheses, error.goal, error.model, sorts), (
            f"{case}/{fn.name}: counterexample does not falsify its obligation"
        )
        # ...and the source-level mapping keeps at least one binding.
        counterexample = counterexample_from_model(
            error.model,
            error.constraint.binders,
            set(body.local_types),
            {name for name, _ in error.constraint.binders},
        )
        assert counterexample is not None and counterexample.bindings


def test_bsearch_span_points_at_failing_expression():
    """Acceptance check: the broken bsearch diagnostic points at the tail
    expression `result` and carries an integer counterexample."""
    result, source = _verify("bsearch_wrong_return")
    diagnostic = result.diagnostics[0]
    lines = source.splitlines()
    blamed = lines[diagnostic.span.line - 1][
        diagnostic.span.column - 1 : diagnostic.span.end_column - 1
    ]
    assert blamed == "result"
    assert diagnostic.tag == "return"
    bindings = dict(diagnostic.counterexample.bindings)
    assert bindings.get("n") == 0 and bindings.get("result") == 0
    # The signature note points at the #[flux::sig] attribute line.
    assert lines[diagnostic.sig_span.line - 1].lstrip().startswith("#[flux::sig")


def test_underscore_local_does_not_alias_in_counterexample():
    """`_x` and `x` are distinct locals; binder hints must preserve the
    underscore so the counterexample never reports one under the other's
    name (regression: hints used to strip leading underscores)."""
    source = (
        "#[flux::sig(fn(x: i32[@x]) -> i32{v: v > x})]\n"
        "fn collide(x: i32) -> i32 {\n"
        "    let mut _x = 0;\n"
        "    let mut i = 0;\n"
        "    while i < 3 {\n"
        "        _x = _x + 100;\n"
        "        i += 1;\n"
        "    }\n"
        "    x\n"
        "}\n"
    )
    reset_fresh_names()
    result = verify_source(source)
    assert not result.ok
    bindings = dict(result.diagnostics[0].counterexample.bindings)
    # the refutation needs v = x, i.e. x itself is the witness — and the
    # loop-carried `_x` must appear (if at all) under its own name
    assert "x" in bindings
    assert bindings.get("_x") != "x"


def test_service_report_carries_structured_counterexample():
    """The same counterexample appears, structured, in the service JSON."""
    from repro.service import VerifyJob, VerifySession, verify_job

    source = (GOLDEN / "wave_translate_strict_bound.rs").read_text()
    reset_fresh_names()
    report = verify_job(VerifyJob(source=source, name="wave"), VerifySession(use_cache=False))
    assert not report.ok
    payload = report.to_dict()
    failures = [
        failure
        for fn in payload["functions"]
        for failure in fn["failures"]
    ]
    assert failures, "expected structured failures in the JSON report"
    failure = failures[0]
    assert failure["span"]["line"] >= 1
    assert failure["counterexample"]["bindings"], failure
    # every structured value is JSON-native (int/bool/str)
    for value in failure["counterexample"]["bindings"].values():
        assert isinstance(value, (int, bool, str))
