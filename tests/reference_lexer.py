"""The character-at-a-time MiniRust lexer, kept as a test oracle.

This is the loop :func:`repro.lang.lexer.tokenize` ran before it became
one compiled pattern, with two changes: ``yield`` in place of ``append``,
so that a test sees the tokens produced before a :class:`LexError`, and
positions advanced one character at a time over comments and string
literals, so that a comment moves the column and a string literal's
newlines move the line.  Tokens are plain ``(kind, text, line, column)``
tuples.

It differs from today's lexer in one place on purpose: it reads a number
with ``str.isdigit()``, so ``²`` or ``١٢`` become number tokens, where
``tokenize`` takes ASCII digits only and rejects them.
"""

from typing import Iterator, Tuple

from repro.lang.lexer import KEYWORDS, OPERATORS, LexError

RefToken = Tuple[str, str, int, int]


def _advance(text: str, line: int, column: int) -> Tuple[int, int]:
    """The position just after ``text``, which starts at ``line``:``column``."""
    for char in text:
        if char == "\n":
            line += 1
            column = 1
        else:
            column += 1
    return line, column


def reference_tokens(source: str) -> Iterator[RefToken]:
    """Yield ``source``'s tokens, ending with ``eof``; raise on bad input."""
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]

        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
                column += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise LexError(f"unterminated block comment at line {line}")
            line, column = _advance(source[index : end + 2], line, column)
            index = end + 2
            continue

        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            is_float = False
            if (
                index < length
                and source[index] == "."
                and index + 1 < length
                and source[index + 1].isdigit()
            ):
                is_float = True
                index += 1
                while index < length and source[index].isdigit():
                    index += 1
            text = source[start:index]
            yield ("float" if is_float else "int", text, line, column)
            column += index - start
            continue

        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            yield (kind, text, line, column)
            column += index - start
            continue

        if char == '"':
            start = index
            index += 1
            while index < length and source[index] != '"':
                index += 1
            if index >= length:
                raise LexError(f"unterminated string literal at line {line}")
            index += 1
            yield ("string", source[start:index], line, column)
            line, column = _advance(source[start:index], line, column)
            continue

        matched = None
        for operator in OPERATORS:
            if source.startswith(operator, index):
                matched = operator
                break
        if matched is None:
            raise LexError(f"unexpected character {char!r} at line {line}, column {column}")
        yield ("op", matched, line, column)
        index += len(matched)
        column += len(matched)

    yield ("eof", "", line, column)
