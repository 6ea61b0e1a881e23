"""The program bindings that perfbench's layer tracer wraps must exist.

:meth:`perfbench.layers.LayerTracer.install` replaces each binding named
in ``TIMED`` and ``COUNTED`` and raises ``KeyError`` when one is missing,
which only a traced benchmark run would notice.  These tests keep a
refactor that drops or renames a wrapped binding from passing the fast
lane.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import repro.smt.interface  # noqa: E402
from perfbench.layers import COUNTED, TIMED  # noqa: E402
from repro.logic.expr import Var, ge  # noqa: E402
from repro.smt import SmtContext, check_sat, use_context  # noqa: E402


def test_every_wrapped_binding_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for _, owner, attribute in TIMED + COUNTED
        if attribute not in vars(owner)
    ]
    assert not missing, f"perfbench wraps bindings that are gone: {missing}"


def test_check_sat_misses_go_through_the_wrapped_solve_formula(monkeypatch):
    # perfbench derives the answer-cache hit ratio from the calls of this
    # binding, so a miss must look it up in ``repro.smt.interface``.
    calls = []
    original = repro.smt.interface.solve_formula

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.smt.interface, "solve_formula", counting)
    formula = ge(Var("x"), 0)
    with use_context(SmtContext()):
        assert check_sat(formula).is_sat
        assert check_sat(formula).is_sat
    assert len(calls) == 1
