"""Rustc-style rendering of verification diagnostics.

Given the original source text, a :class:`repro.core.errors.Diagnostic`
renders as a caret snippet::

    error[refinement]: cannot prove `call RVec::get argument 2` in `bsearch`
      --> demo.rs:8:20
       |
     8 |         let val = *items.get(mid);
       |                    ^^^^^^^^^^^^^^
       |
    note: obligation imposed by this signature
      --> demo.rs:1:1
       |
     1 | #[flux::sig(fn(i32, &RVec<i32>[@n]) -> usize{v: v <= n})]
       | ----------------------------------------------------------
       = note: verification fails when `n = 0`, `lo = 1`

The layout follows rustc: a primary span with ``^`` carets, an optional
secondary span (the ``#[flux::sig]`` clause) with ``-`` underlines, and the
counterexample valuation as a trailing note.  An execution fault (a crashed
worker, a missed deadline, an exhausted resource) proves nothing about the
program and says so::

    error[fault]: `resource-exhausted` while verifying `f`: input nests too deeply to verify
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.errors import Diagnostic
from repro.lang.span import Span

if TYPE_CHECKING:  # import cycle: pipeline itself imports this package
    from repro.core.pipeline import VerificationResult

__all__ = ["render_diagnostic", "render_result"]


def _snippet_lines(
    source_lines: List[str],
    span: Span,
    gutter: int,
    marker: str,
    label: str = "",
) -> List[str]:
    """The ``LL | text`` / ``   | ^^^`` pair for one span."""
    out: List[str] = []
    if not (1 <= span.line <= len(source_lines)):
        return out
    text = source_lines[span.line - 1].rstrip("\n")
    out.append(f"{span.line:>{gutter}} | {text}")
    start = max(span.column - 1, 0)
    if span.end_line == span.line:
        width = max(span.end_column - span.column, 1)
    else:
        width = max(len(text) - start, 1)  # span continues past this line
    width = min(width, max(len(text) - start, 1))
    underline = " " * start + marker * width
    if label:
        underline += f" {label}"
    out.append(f"{' ' * gutter} | {underline}")
    return out


def render_diagnostic(
    diagnostic: Diagnostic, source: str, filename: str = "<input>"
) -> str:
    """Render one diagnostic as a rustc-style snippet over ``source``."""
    source_lines = source.splitlines()
    spans = [s for s in (diagnostic.span, diagnostic.sig_span) if s is not None]
    gutter = max((len(str(s.line)) for s in spans), default=1)
    bar = f"{' ' * gutter} |"

    lines: List[str] = []
    if diagnostic.is_fault:
        header = f"error[fault]: `{diagnostic.tag}` while verifying `{diagnostic.function}`"
    else:
        header = f"error[refinement]: cannot prove `{diagnostic.tag}` in `{diagnostic.function}`"
    if diagnostic.message:
        header += f": {diagnostic.message}"
    lines.append(header)

    if diagnostic.span is not None:
        lines.append(f"{' ' * gutter}--> {filename}:{diagnostic.span.line}:{diagnostic.span.column}")
        lines.append(bar)
        lines.extend(_snippet_lines(source_lines, diagnostic.span, gutter, "^"))
        lines.append(bar)

    if diagnostic.sig_span is not None:
        lines.append("note: obligation imposed by this signature")
        lines.append(
            f"{' ' * gutter}--> {filename}:{diagnostic.sig_span.line}:{diagnostic.sig_span.column}"
        )
        lines.append(bar)
        lines.extend(_snippet_lines(source_lines, diagnostic.sig_span, gutter, "-"))

    if diagnostic.counterexample:
        lines.append(
            f"{' ' * gutter} = note: verification fails when {diagnostic.counterexample}"
        )
    return "\n".join(lines)


def render_result(
    result: "VerificationResult", source: str, filename: str = "<input>"
) -> str:
    """Render every diagnostic of a verification result, separated by blank
    lines, followed by an error-count summary (empty string when ok)."""
    rendered = [
        render_diagnostic(diagnostic, source, filename)
        for diagnostic in result.diagnostics
    ]
    if not rendered:
        return ""
    count = len(rendered)
    noun = "error" if count == 1 else "errors"
    rendered.append(f"verification failed: {count} {noun}")
    return "\n\n".join(rendered)
