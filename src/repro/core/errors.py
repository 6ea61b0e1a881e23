"""Diagnostics for the Flux checker.

A failed verification produces :class:`Diagnostic` records.  Since the
counterexample-carrying diagnostics work, a diagnostic knows

* *where* — ``span``, the surface expression whose obligation failed, and
  ``sig_span``, the ``#[flux::sig]`` clause that imposed it;
* *why* — ``counterexample``, a concrete valuation of the source-level
  refinement variables under which the obligation is falsified, extracted
  from the SMT model of the failing validity query.

``repro.diagnostics`` renders these as rustc-style caret snippets; the
service layer serialises them (``to_dict``/``from_dict``) into JSON reports
and the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from repro.fixpoint.solve import FAULT_KINDS
from repro.lang.span import Span


class FluxError(Exception):
    """Raised for malformed specifications or unsupported constructs."""


#: A counterexample value: integers for ``int``-sorted variables, booleans
#: for ``bool``-sorted ones, strings for the rare non-integral rationals.
CexValue = Union[int, bool, str]


@dataclass(frozen=True)
class Counterexample:
    """A concrete valuation falsifying one verification obligation.

    ``bindings`` maps *source-level* names (function parameters, locals,
    ``@n`` refinement parameters of the signature) to values; they are what
    the renderer prints.  ``raw`` keeps the underlying solver-level model
    (fresh binder names and all) for debugging and for the model-soundness
    tests.
    """

    bindings: Tuple[Tuple[str, CexValue], ...]
    raw: Tuple[Tuple[str, str], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.bindings)

    def __str__(self) -> str:
        return ", ".join(f"`{name} = {_show_value(value)}`" for name, value in self.bindings)

    def to_dict(self) -> Dict[str, object]:
        return {
            "bindings": {name: value for name, value in self.bindings},
            "raw": {name: value for name, value in self.raw},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Counterexample":
        # JSON objects keep insertion order, so a to_dict/from_dict round
        # trip preserves binding order (and hence the rendered text) exactly.
        bindings = tuple(dict(payload.get("bindings", {})).items())
        raw = tuple((str(k), str(v)) for k, v in dict(payload.get("raw", {})).items())
        return cls(bindings=bindings, raw=raw)


def _show_value(value: CexValue) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


@dataclass
class Diagnostic:
    """A verification failure with provenance.

    ``tag`` identifies the failing obligation (e.g. ``call RVec::get arg 1``
    or ``return``), or names the execution fault that cost the verdict
    (:attr:`is_fault`); ``function`` is the enclosing function.  ``span`` points
    at the surface expression that produced the obligation, ``sig_span`` at
    the ``#[flux::sig]`` attribute whose clause could not be satisfied, and
    ``counterexample`` carries the falsifying valuation when the solver
    could extract one.
    """

    function: str
    tag: str
    message: str = ""
    span: Optional[Span] = None
    sig_span: Optional[Span] = None
    counterexample: Optional[Counterexample] = None

    @property
    def is_fault(self) -> bool:
        """Whether a crash, a deadline or a resource ceiling cost the
        verdict, rather than the solver refuting an obligation."""
        return self.tag in FAULT_KINDS

    def __str__(self) -> str:
        if self.is_fault:
            text = f"{self.function}: execution fault ({self.tag})"
        else:
            text = f"{self.function}: refinement error at {self.tag}"
        if self.span is not None:
            text += f" ({self.span})"
        if self.message:
            text += f": {self.message}"
        if self.counterexample:
            text += f" [counterexample: {self.counterexample}]"
        return text

    def moved(self, lines: int) -> "Diagnostic":
        """This diagnostic with its spans ``lines`` lines further down."""
        return replace(
            self,
            span=self.span.moved(lines) if self.span is not None else None,
            sig_span=self.sig_span.moved(lines) if self.sig_span is not None else None,
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "function": self.function,
            "tag": self.tag,
            "message": self.message,
        }
        if self.span is not None:
            payload["span"] = self.span.to_dict()
        if self.sig_span is not None:
            payload["sig_span"] = self.sig_span.to_dict()
        if self.counterexample is not None:
            payload["counterexample"] = self.counterexample.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Diagnostic":
        span = payload.get("span")
        sig_span = payload.get("sig_span")
        counterexample = payload.get("counterexample")
        return cls(
            function=str(payload["function"]),
            tag=str(payload["tag"]),
            message=str(payload.get("message", "")),
            span=Span.from_dict(span) if span else None,
            sig_span=Span.from_dict(sig_span) if sig_span else None,
            counterexample=Counterexample.from_dict(counterexample) if counterexample else None,
        )
