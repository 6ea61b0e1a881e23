"""A small SMT solver for quantifier-free linear integer arithmetic.

The paper's implementation delegates validity checking to liquid-fixpoint /
Z3.  This package is the stand-in: a lazy DPLL(T) solver built from

* a CDCL SAT core (:mod:`repro.smt.sat`),
* an exact (rational) simplex for linear real arithmetic
  (:mod:`repro.smt.simplex`),
* branch-and-bound on top of the simplex for integer variables
  (:mod:`repro.smt.lia`), and
* a preprocessing layer (if-then-else elimination, Ackermann expansion of
  uninterpreted functions), a memoised Tseitin encoder over interned
  formulas, plus the lazy theory loop (:mod:`repro.smt.solver`),

driven by one entry, :class:`IncrementalSolver`; :func:`check_sat` answers
one-shot queries on a throwaway one behind an answer cache.

All queries generated by the Flux checker fall in this fragment; the
Prusti-style baseline additionally needs universally quantified axioms,
handled by bounded instantiation in :mod:`repro.smt.quant`.
"""

from repro.smt.interface import (
    AnswerCache,
    SmtContext,
    check_sat,
    current_context,
    is_satisfiable,
    is_valid,
    set_context,
    use_context,
    validity_answer,
)
from repro.smt.incremental import IncrementalSolver
from repro.smt.result import CheckStats, SatResult, SolverAnswer
from repro.smt.solver import SmtError

__all__ = [
    "AnswerCache",
    "CheckStats",
    "IncrementalSolver",
    "SmtContext",
    "SmtError",
    "check_sat",
    "current_context",
    "is_satisfiable",
    "is_valid",
    "set_context",
    "use_context",
    "SatResult",
    "SolverAnswer",
    "validity_answer",
]
