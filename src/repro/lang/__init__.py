"""MiniRust front-end.

The real Flux is a plug-in to the Rust compiler; its input is Rust source
annotated with ``#[flux::sig(...)]`` attributes.  This package provides the
corresponding front-end for the reproduction: a lexer, a parser for the safe
Rust fragment exercised by every benchmark in the paper (functions, lets,
loops, conditionals, references, vectors, structs and enums, method calls),
and parsers for the two specification languages — Flux signatures and
Prusti-style ``requires``/``ensures``/``body_invariant!`` annotations.
"""

from repro.lang.lexer import LexError, Token, tokenize
from repro.lang.parser import ParseError, parse_program, split_items
from repro.lang.ast import Program
from repro.lang.span import Span, merge_spans

__all__ = [
    "LexError",
    "Token",
    "tokenize",
    "ParseError",
    "parse_program",
    "split_items",
    "Program",
    "Span",
    "merge_spans",
]
