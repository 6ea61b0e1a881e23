"""Differential test: ``tokenize`` against the character-loop reference lexer.

Both lexers run over the Table-1 sources, the golden and fuzz-corpus
programs, one generated stress crate, and seeded mutations of windows of
them that insert the characters a lexer is most likely to get wrong.  Every
token's ``(kind, text, line, column)`` and every ``LexError`` message must
agree.  The one difference allowed is a number holding a non-ASCII digit:
the reference reads it with ``str.isdigit()``, while ``tokenize`` takes
ASCII digits only and rejects the first non-ASCII one.

A second check holds the specification parsers' token source,
``tokenize_texts``, to what re-lexing the joined attribute texts gives.
"""

import random
from pathlib import Path

import pytest

from reference_lexer import reference_tokens
from repro.bench.programs import benchmark_programs
from repro.fuzz.generator import crate_seed, generate_crate
from repro.lang import parse_program
from repro.lang.lexer import LexError, tokenize, tokenize_texts

TESTS = Path(__file__).resolve().parent
MUTATIONS = 2400
SEED = 20230601

#: Inserted by the mutator: non-ASCII letters (``ǅ`` is titlecase),
#: non-ASCII digits (``²`` and ``١`` are ``isdigit``; ``½`` is only
#: ``isnumeric``), a combining mark, and the ASCII characters that open or
#: bend a token.
FRAGMENTS = [
    "é", "ß", "λ", "Ж", "中", "ǅ",
    "²", "١", "٣", "۵", "९", "½",
    "\u0301",
    '"', "/*", "//", "*/", "\r", "\t", "\n", ".", "0", "_",
]


def _sources():
    sources = []
    for program in benchmark_programs():
        sources += [program.flux_source, program.prusti_source]
    for directory in ("golden", "corpus"):
        sources += [path.read_text() for path in sorted((TESTS / directory).glob("*.rs"))]
    sources.append(generate_crate(crate_seed(0, 0), "stress").source)
    return sources


SOURCES = _sources()


def _mutants(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        source = rng.choice(SOURCES)
        start = rng.randrange(len(source))
        window = list(source[start : start + rng.randint(1, 240)])
        for _ in range(rng.randint(1, 4)):
            window.insert(rng.randint(0, len(window)), rng.choice(FRAGMENTS))
        yield "".join(window)


def expected(source):
    """``(outcome, digit_case)``: what ``tokenize`` must give, read off the reference.

    ``outcome`` is ``(tokens, None)`` or ``(None, error message)``.  At a
    digit case ``tokenize`` must fail at the number's first non-ASCII
    character.
    """
    tokens = []
    try:
        for kind, text, line, column in reference_tokens(source):
            if kind in ("int", "float") and not text.isascii():
                offset = next(i for i, char in enumerate(text) if not char.isascii())
                message = (
                    f"unexpected character {text[offset]!r} at line {line}, "
                    f"column {column + offset}"
                )
                return (None, message), True
            tokens.append((kind, text, line, column))
    except LexError as error:
        return (None, str(error)), False
    return (tokens, None), False


def _outcome(lex, argument):
    try:
        return lex(argument), None
    except LexError as error:
        return None, str(error)


def actual(source):
    tokens, error = _outcome(tokenize, source)
    return (None if tokens is None else [tuple(token) for token in tokens]), error


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_unmutated_sources_lex_identically(index):
    outcome, _ = expected(SOURCES[index])
    assert outcome[1] is None
    assert actual(SOURCES[index]) == outcome


def test_mutated_sources_lex_identically():
    counts = {"tokens": 0, "error": 0, "digit case": 0}
    for source in _mutants(MUTATIONS, SEED):
        outcome, digit_case = expected(source)
        assert actual(source) == outcome, repr(source)
        kind = "digit case" if digit_case else "tokens" if outcome[1] is None else "error"
        counts[kind] += 1
    # The mix must exercise every branch, or the comparison proves little.
    assert min(counts.values()) >= 100, counts


def test_non_ascii_digits_are_rejected():
    with pytest.raises(LexError, match=r"unexpected character '١' at line 1, column 9"):
        tokenize("let x = ١٢;")
    with pytest.raises(LexError, match=r"unexpected character '²' at line 2, column 3"):
        tokenize("x\n 1²")
    assert [token.text for token in tokenize("x² é1")] == ["x²", "é1", ""]


def _attribute_texts():
    for source in SOURCES:
        program = parse_program(source)
        items = [*program.functions, *program.structs, *program.enums]
        items += [field for struct in program.structs for field in struct.fields]
        items += [variant for enum in program.enums for variant in enum.variants]
        for item in items:
            for attr in item.attrs:
                yield attr.tokens


ODD_TEXTS = [
    "", " ", "a b", "//", "/*", "\n", "é", "²", '"x', '"a b"', '"a\nb"', "1.5", "x1", "==>",
]


def test_spec_texts_read_as_their_joined_tokens():
    attributes = list(_attribute_texts())
    assert len(attributes) > 1000
    for texts in attributes:
        assert tokenize_texts(texts) == tokenize(" ".join(texts)), texts
    rng = random.Random(SEED)
    for _ in range(500):
        texts = list(rng.choice(attributes))
        for _ in range(rng.randint(1, 2)):
            texts.insert(rng.randint(0, len(texts)), rng.choice(ODD_TEXTS))
        assert _outcome(tokenize_texts, texts) == _outcome(tokenize, " ".join(texts)), texts
    assert tokenize_texts([]) == tokenize("")
