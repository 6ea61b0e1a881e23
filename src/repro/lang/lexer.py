"""Lexer for MiniRust source and for the refinement specification languages.

A single token stream serves both the program parser and the attribute
(signature) parsers, since the paper's specification syntax reuses Rust's
lexical structure.

:func:`tokenize` is one loop over one compiled pattern with a named group
per lexical class (whitespace run, newline, identifier, ``//`` comment,
``/*`` opener, operator, number, string): at each index it takes the
first alternative that matches and dispatches on the group's name.
A token's position is the line and column of its first character.  A
``/* */`` comment or a string literal may span lines: each of its newlines
advances the line, and the column restarts after the last one.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Sequence

from repro.lang.span import Span


class LexError(Exception):
    """Raised on malformed input with a line/column position."""


KEYWORDS = {
    "fn",
    "let",
    "mut",
    "if",
    "else",
    "while",
    "return",
    "true",
    "false",
    "struct",
    "enum",
    "impl",
    "match",
    "as",
    "use",
    "pub",
    "self",
    "Self",
    "for",
    "in",
    "break",
    "continue",
    "ensures",
    "requires",
    "strg",
    "forall",
    "old",
}

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "=>",
    "->",
    "::",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "..",
    "#[",
    "<",
    ">",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "&",
    "|",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ":",
    ".",
    "@",
    "#",
    "?",
]

# One alternative per lexical class, tried in order: the comment groups
# must precede ``op`` (which has ``/``), and the numbers must precede
# ``word``.  Numeric literals are ASCII, as in Rust.  An identifier starts
# with ``str.isalpha()`` or ``_`` and continues with ``str.isalnum()`` or
# ``_``, which is exactly ``\w``: ``ident`` covers the ASCII starts, and
# ``word`` the rest, whose first character is checked in Python.
_OPERATOR_PATTERN = "|".join(re.escape(op) for op in OPERATORS)
_TOKEN = re.compile(
    r"(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n[ \t\r]*)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*)"
    rf"|(?P<op>{_OPERATOR_PATTERN})"
    r"|(?P<float>[0-9]+\.[0-9]+)"
    r"|(?P<int>[0-9]+)"
    r'|(?P<string>"[^"]*")'
    r"|(?P<word>\w+)"
)

#: The groups that are a whole token by themselves (``word`` is one only
#: after its first character is checked).
_TOKEN_KINDS = frozenset({"ident", "op", "float", "int", "string"})

#: The kinds of the texts that need no match: operators and keywords.
_FIXED_KINDS = {**dict.fromkeys(OPERATORS, "op"), **dict.fromkeys(KEYWORDS, "keyword")}


class Token(NamedTuple):
    kind: str  # "ident", "keyword", "int", "float", "string", "op", "eof"
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"

    @property
    def span(self) -> Span:
        return Span.from_token(self)


# Builds a Token without NamedTuple's Python-level ``__new__``.
_new_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source`` into a list ending with an ``eof`` token.

    >>> [(t.kind, t.text, t.line, t.column) for t in tokenize("let x = 1;")]
    ... # doctest: +NORMALIZE_WHITESPACE
    [('keyword', 'let', 1, 1), ('ident', 'x', 1, 5), ('op', '=', 1, 7),
     ('int', '1', 1, 9), ('op', ';', 1, 10), ('eof', '', 1, 11)]
    >>> try:
    ...     tokenize("let y = ²;")
    ... except LexError as error:
    ...     print(error)
    unexpected character '²' at line 1, column 9
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        found = match(source, index)
        if found is None:
            if source[index] == '"':
                raise LexError(f"unterminated string literal at line {line}")
            raise LexError(
                f"unexpected character {source[index]!r} at line {line}, column {column}"
            )
        kind = found.lastgroup
        end = found.end()
        if kind == "space":
            column += end - index
        elif kind == "newline":
            line += 1
            column = end - index
        elif kind == "ident" or kind == "word":
            text = found.group()
            if kind == "word" and not text[0].isalpha():
                raise LexError(f"unexpected character {text[0]!r} at line {line}, column {column}")
            kind = "keyword" if text in KEYWORDS else "ident"
            append(_new_token(Token, (kind, text, line, column)))
            column += end - index
        elif kind == "op" or kind == "int" or kind == "float":
            append(_new_token(Token, (kind, found.group(), line, column)))
            column += end - index
        elif kind == "line_comment":
            column += end - index
        else:
            # A string or a block comment: either may span lines.
            if kind == "string":
                append(_new_token(Token, (kind, found.group(), line, column)))
            else:
                close = source.find("*/", end)
                if close == -1:
                    raise LexError(f"unterminated block comment at line {line}")
                end = close + 2
            last_newline = source.rfind("\n", index, end)
            if last_newline == -1:
                column += end - index
            else:
                line += source.count("\n", index, end)
                column = end - last_newline
        index = end

    append(_new_token(Token, ("eof", "", line, column)))
    return tokens


def tokenize_texts(texts: Sequence[str]) -> List[Token]:
    """The tokens of ``" ".join(texts)``, read off ``texts`` without lexing the join.

    Attribute arguments reach the specification parsers as the token texts
    the program lexer cut, so each text is one token on line 1, at its
    offset in the joined text.  A text that is not exactly one token, or
    that spans lines, sends the joined text through :func:`tokenize`.

    >>> tokenize_texts(["x", ">=", "0"]) == tokenize("x >= 0")
    True
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    column = 1
    for text in texts:
        kind = _FIXED_KINDS.get(text)
        if kind is None:
            found = match(text)
            kind = found.lastgroup if found is not None else None
            if kind not in _TOKEN_KINDS or found.end() != len(text) or "\n" in text:
                return tokenize(" ".join(texts))
        append(_new_token(Token, (kind, text, 1, column)))
        column += len(text) + 1
    append(_new_token(Token, ("eof", "", 1, column - 1 if tokens else 1)))
    return tokens


#: The kinds that :meth:`TokenStream.at` matches by text.  Neither is
#: ``eof``, so a match can always advance.
_RESERVED = ("op", "keyword")


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers.

    The list ends with its only ``eof`` token, where the cursor stops.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self._position = 0
        self._last = len(tokens) - 1

    def peek(self, offset: int = 0) -> Token:
        position = self._position + offset
        return self.tokens[position if position < self._last else self._last]

    def previous(self) -> Token:
        """The most recently consumed token (the first token before any
        ``next``); used by the parser to close spans."""
        position = self._position
        return self.tokens[position - 1 if position else 0]

    def next(self) -> Token:
        position = self._position
        if position < self._last:
            self._position = position + 1
        return self.tokens[position]

    def at(self, text: str) -> bool:
        token = self.tokens[self._position]
        return token.text == text and token.kind in _RESERVED

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self._position].kind == kind

    def accept(self, text: str) -> Optional[Token]:
        token = self.tokens[self._position]
        if token.text == text and token.kind in _RESERVED:
            self._position += 1
            return token
        return None

    def expect(self, text: str) -> Token:
        token = self.tokens[self._position]
        if token.text == text and token.kind in _RESERVED:
            self._position += 1
            return token
        raise _error(token, f"expected {text!r}, found {token.text!r}")

    def expect_kind(self, kind: str) -> Token:
        token = self.tokens[self._position]
        if token.kind != kind:
            raise _error(token, f"expected {kind}, found {token.text!r}")
        if self._position < self._last:
            self._position += 1
        return token

    @property
    def position(self) -> int:
        return self._position

    def rewind(self, position: int) -> None:
        self._position = position


def _error(token: Token, message: str):
    from repro.lang.parser import ParseError

    return ParseError(f"{message} (line {token.line}, column {token.column})")
