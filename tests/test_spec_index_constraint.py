"""The combined index-binding-plus-constraint form ``B[@n]{v: pred}``.

This syntax appears in the Table-1 ``kmp`` and ``simplex`` programs
(``fn(&RVec<i32>[@m]{v: v > 0}) -> RVec<usize>[m]``) and used to fail spec
elaboration with a ``ParseError``.  It now elaborates to an indexed type
plus a signature-level requirement on the bound index: assumed when the
function body is checked, proved at every call site.
"""

import pytest

from repro.core.errors import FluxError
from repro.core.genv import GlobalEnv
from repro.lang import parse_program
from repro.logic import BinOp, Var, IntConst, gt
from repro.service import verify_source


POSITIVE_LEN = """
#[flux::sig(fn(&RVec<i32>[@m]{v: v > 0}) -> usize[m])]
fn length_of(p: &RVec<i32>) -> usize {
    p.len()
}

#[flux::sig(fn(&RVec<i32>[@n]{v: v > 0}) -> usize[n])]
fn caller_ok(p: &RVec<i32>) -> usize {
    length_of(p)
}
"""

BAD_CALLER = """
#[flux::sig(fn(&RVec<i32>[@m]{v: v > 0}) -> usize[m])]
fn length_of(p: &RVec<i32>) -> usize {
    p.len()
}

#[flux::sig(fn(&RVec<i32>[@n]) -> usize[n])]
fn caller_bad(p: &RVec<i32>) -> usize {
    length_of(p)
}
"""


class TestParsing:
    def test_signature_elaborates_with_requirement(self):
        program = parse_program(POSITIVE_LEN)
        genv = GlobalEnv()
        genv.register_program(program)
        signature = genv.signature("length_of")
        assert ("m", signature.refinement_params[0][1]) in signature.refinement_params
        assert signature.requires == (gt(Var("m"), IntConst(0)),)

    def test_constraint_rejected_outside_argument_position(self):
        source = """
#[flux::sig(fn(usize[@n]) -> RVec<i32>[n]{v: v > 0})]
fn bad(n: usize) -> RVec<i32> {
    RVec::new()
}
"""
        program = parse_program(source)
        genv = GlobalEnv()
        with pytest.raises(FluxError):
            genv.register_program(program)


class TestVerification:
    def test_requirement_assumed_in_body_and_proved_at_call(self):
        result = verify_source(POSITIVE_LEN)
        assert result.ok, [str(d) for d in result.diagnostics]

    def test_caller_without_requirement_fails(self):
        result = verify_source(BAD_CALLER)
        assert not result.ok
        assert any("requires" in str(d) for d in result.diagnostics)

    @pytest.mark.parametrize("name", ["kmp", "simplex"])
    def test_table1_programs_parse(self, name):
        from repro.bench.fixpoint_bench import collect_function_constraints, table1_programs

        program = table1_programs([name])[0]
        batch = collect_function_constraints(program)
        assert batch, f"{name}: no functions collected"
