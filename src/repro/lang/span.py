"""Source spans: the provenance currency of the diagnostics pipeline.

A :class:`Span` is a half-open region of source text, ``(line, column)``
inclusive up to ``(end_line, end_column)`` exclusive, both 1-based — the
same convention rustc uses.  Spans are born on tokens in the lexer, merged
upward through the surface AST by the parser, copied onto MIR statements
and terminators by the lowering pass, and finally attached to the ``Pred``
leaves of Horn constraints by the checker, so a failed obligation can point
back at the exact expression it came from.

Spans are provenance, not content: every structure that carries one
excludes it from equality, hashing and ``repr`` (the service result cache
fingerprints ASTs via ``repr``, and moving code around must not invalidate
cached verdicts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Span", "merge_spans"]


@dataclass(frozen=True)
class Span:
    """A region of source text, 1-based, end-exclusive."""

    line: int
    column: int
    end_line: int
    end_column: int

    @classmethod
    def from_token(cls, token) -> "Span":
        """The span of a single lexer token.

        A string literal may span lines; its end is then on its last line,
        just after the text that follows its last newline.
        """
        text = token.text
        if "\n" not in text:
            return cls(token.line, token.column, token.line, token.column + max(1, len(text)))
        last = text.rindex("\n")
        return cls(token.line, token.column, token.line + text.count("\n"), len(text) - last)

    def merge(self, other: Optional["Span"]) -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        if other is None:
            return self
        start = min((self.line, self.column), (other.line, other.column))
        end = max((self.end_line, self.end_column), (other.end_line, other.end_column))
        return Span(start[0], start[1], end[0], end[1])

    def moved(self, lines: int) -> "Span":
        """The same region ``lines`` lines further down."""
        return Span(self.line + lines, self.column, self.end_line + lines, self.end_column)

    def to_dict(self) -> Dict[str, int]:
        return {
            "line": self.line,
            "column": self.column,
            "end_line": self.end_line,
            "end_column": self.end_column,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "Span":
        return cls(
            int(payload["line"]),
            int(payload["column"]),
            int(payload.get("end_line", payload["line"])),
            int(payload.get("end_column", int(payload["column"]) + 1)),
        )

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def merge_spans(*spans: Optional[Span]) -> Optional[Span]:
    """Merge any number of optional spans; ``None`` entries are skipped."""
    merged: Optional[Span] = None
    for span in spans:
        if span is None:
            continue
        merged = span if merged is None else merged.merge(span)
    return merged
