"""The verification service: incremental, cacheable, parallel runs.

This package is the one entry into the verifier.  It parses and elaborates
a program, serves unchanged functions from the result cache, and verifies
the rest with :mod:`repro.core.pipeline`'s per-function checker:

* :mod:`repro.service.session` — :class:`VerifySession`, owning per-run SMT
  state and the result cache (no shared globals, hence safe concurrency);
* :mod:`repro.service.cache` — a content-addressed per-function result cache
  (in-memory and on-disk JSON) keyed by the function's AST and the interfaces
  it depends on;
* :mod:`repro.service.scheduler` — callee-first scheduling, serial or on
  forked :class:`repro.faults.Worker` processes, inside one fault boundary
  (deadline, ``MemoryError``, ``RecursionError``), with deterministic
  output;
* :mod:`repro.service.api` — batch jobs in, structured JSON reports out;
* :mod:`repro.service.cli` — ``python -m repro`` (``--explain`` renders
  rustc-style caret diagnostics with counterexamples).

The one-call entry point is :func:`verify_source`:

>>> from repro.service import VerifySession, verify_source
>>> session = VerifySession()          # owns SMT state + result cache
>>> result = verify_source(
...     "#[flux::sig(fn(x: i32{v: v > 0}) -> i32{v: v > 1})]\\n"
...     "fn bump(x: i32) -> i32 { x + 1 }",
...     session=session,
... )
>>> result.ok
True
>>> result.function("bump").ok
True

A failed verification carries structured diagnostics — source spans and a
concrete counterexample valuation — instead of a bare verdict:

>>> bad = verify_source(
...     "#[flux::sig(fn(x: i32{v: v > 0}) -> i32{v: v > 2})]\\n"
...     "fn bump(x: i32) -> i32 { x + 1 }",
...     session=session,
... )
>>> bad.ok
False
>>> diagnostic = bad.diagnostics[0]
>>> diagnostic.tag
'return'
>>> dict(diagnostic.counterexample.bindings)
{'x': 1}
"""

from repro.service.api import (
    FunctionReport,
    JobReport,
    ServiceReport,
    VerifyJob,
    verify_job,
    verify_jobs,
    verify_source,
)
from repro.service.cache import ResultCache, function_key
from repro.service.session import VerifySession

__all__ = [
    "FunctionReport",
    "JobReport",
    "ServiceReport",
    "VerifyJob",
    "VerifySession",
    "ResultCache",
    "function_key",
    "verify_job",
    "verify_jobs",
    "verify_source",
]
