"""The Flux refinement type system — the paper's primary contribution.

Layout:

* :mod:`repro.core.rtypes` — refined types: indexed types ``B[r]``,
  existential types ``{v. B[v] | p}``, reference types (shared, mutable,
  strong pointers) and refined ADTs.
* :mod:`repro.core.genv` — the global environment: elaborated function
  signatures (from ``#[flux::sig]``), refined struct/enum definitions, and
  the built-in refined vector API of Fig. 3.
* :mod:`repro.core.subtyping` — syntax-directed subtyping that decomposes
  checks into quantifier-free Horn constraints.
* :mod:`repro.core.checker` — the MIR refinement checker (§4): shape
  inference for join/loop templates, constraint generation, strong updates
  through exclusive ownership, weak updates through ``&mut``, and strong
  references with ``ensures`` clauses.
* :mod:`repro.core.pipeline` — the per-function verifier that runs
  lowering, type inference, checking and liquid inference, and the result
  types it returns.  Programs enter it through :mod:`repro.service`
  (``repro.service.verify_source`` for one call).
"""

from repro.core.pipeline import (
    FunctionResult,
    VerificationResult,
    merge_programs,
)
from repro.core.errors import FluxError

__all__ = [
    "FunctionResult",
    "VerificationResult",
    "merge_programs",
    "FluxError",
]
