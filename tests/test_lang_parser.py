"""Tests for the MiniRust lexer and parser."""

import pytest

from repro.lang import ast, parse_program, tokenize
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError


class TestLexer:
    def test_simple_tokens(self):
        tokens = tokenize("fn main() { let x = 1 + 2; }")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword"
        assert kinds[-1] == "eof"

    def test_operators_maximal_munch(self):
        tokens = [t.text for t in tokenize("a <= b && c -> d :: e")][:-1]
        assert "<=" in tokens and "&&" in tokens and "->" in tokens and "::" in tokens

    def test_float_literal(self):
        tokens = tokenize("0.5 + 1")
        assert tokens[0].kind == "float"
        assert tokens[0].text == "0.5"

    def test_comments_skipped(self):
        tokens = tokenize("x // line comment\n/* block */ y")
        texts = [t.text for t in tokens if t.kind != "eof"]
        assert texts == ["x", "y"]

    def test_line_tracking(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    @pytest.mark.parametrize(
        "source, positions",
        [
            ("/* note */ x", [("x", 1, 12), ("", 1, 13)]),
            ("/* a\nbc */ x", [("x", 2, 7), ("", 2, 8)]),
            ('"a\nb" x\ny', [('"a\nb"', 1, 1), ("x", 2, 4), ("y", 3, 1), ("", 3, 2)]),
            ("x // c", [("x", 1, 1), ("", 1, 7)]),
        ],
    )
    def test_positions_after_comments_and_multiline_strings(self, source, positions):
        assert [(t.text, t.line, t.column) for t in tokenize(source)] == positions

    def test_multiline_string_span_ends_on_its_last_line(self):
        string, name, _ = tokenize('"a\nbc" x')
        assert string.span.to_dict() == {"line": 1, "column": 1, "end_line": 2, "end_column": 4}
        assert name.span.to_dict() == {"line": 2, "column": 5, "end_line": 2, "end_column": 6}
        name, string, _ = tokenize('x "a\nbc"')
        merged = name.span.merge(string.span)
        assert merged.to_dict() == {"line": 1, "column": 1, "end_line": 2, "end_column": 4}

    def test_spans_around_a_multiline_string(self):
        program = parse_program(
            '#[flux::opaque("a\nbc")]\nfn f() {\n    assert!(true, "d\nef");\n}\n'
        )
        fn = program.functions[0]
        attribute = fn.attrs[0].span.to_dict()
        assert attribute == {"line": 1, "column": 1, "end_line": 2, "end_column": 6}
        (macro,) = fn.body.stmts
        assert isinstance(macro, ast.MacroStmt)
        assert macro.span.to_dict() == {"line": 4, "column": 5, "end_line": 5, "end_column": 6}

    def test_attribute_token(self):
        tokens = tokenize("#[flux::sig(fn())]")
        assert tokens[0].text == "#["

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("let x = $;")

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_non_ascii_digit_is_an_unexpected_character(self):
        # Numeric literals are ASCII, as in Rust.  ``str.isdigit()`` accepts
        # ``²``, which ``int()`` then rejects with a bare ``ValueError``.
        with pytest.raises(LexError, match=r"^unexpected character '²' at line 1, column 25$"):
            parse_program("fn f() -> i32 { let x = ²; x }")


SIMPLE_FN = """
#[flux::sig(fn(i32[@n]) -> bool[n > 0])]
fn is_pos(n: i32) -> bool {
    if n > 0 { true } else { false }
}
"""


class TestParser:
    def test_simple_function(self):
        program = parse_program(SIMPLE_FN)
        fn = program.function("is_pos")
        assert fn.params[0].name == "n"
        assert isinstance(fn.params[0].ty, ast.TyName)
        assert fn.attrs[0].name == "flux::sig"
        assert isinstance(fn.body.tail, ast.IfExpr)

    def test_while_loop_and_let(self):
        source = """
        fn count(n: usize) -> usize {
            let mut i = 0;
            while i < n {
                i += 1;
            }
            i
        }
        """
        fn = parse_program(source).function("count")
        stmts = fn.body.stmts
        assert isinstance(stmts[0], ast.LetStmt)
        assert stmts[0].mutable
        assert isinstance(stmts[1], ast.WhileStmt)
        assert isinstance(fn.body.tail, ast.VarExpr)

    def test_compound_assignment(self):
        source = "fn f() { let mut x = 0; x += 1; x -= 2; }"
        fn = parse_program(source).function("f")
        assign = fn.body.stmts[1]
        assert isinstance(assign, ast.AssignStmt)
        assert assign.op == "+"

    def test_method_calls_and_paths(self):
        source = """
        fn g() -> usize {
            let mut v = RVec::new();
            v.push(1);
            v.len()
        }
        """
        fn = parse_program(source).function("g")
        let_stmt = fn.body.stmts[0]
        assert isinstance(let_stmt.init, ast.CallExpr)
        assert let_stmt.init.func == "RVec::new"
        push = fn.body.stmts[1].expr
        assert isinstance(push, ast.MethodCallExpr)
        assert push.method == "push"
        assert isinstance(fn.body.tail, ast.MethodCallExpr)

    def test_references_and_deref(self):
        source = """
        fn h(x: &mut i32) {
            let y = *x;
            *x = y + 1;
        }
        """
        fn = parse_program(source).function("h")
        assert isinstance(fn.params[0].ty, ast.TyRef)
        assert fn.params[0].ty.mutable
        let_stmt = fn.body.stmts[0]
        assert isinstance(let_stmt.init, ast.DerefExpr)
        assign = fn.body.stmts[1]
        assert isinstance(assign.place, ast.DerefExpr)

    def test_borrow_expressions(self):
        source = "fn f() { let mut x = 0; decr(&mut x); read(&x); }"
        fn = parse_program(source).function("f")
        call = fn.body.stmts[1].expr
        assert isinstance(call.args[0], ast.BorrowExpr)
        assert call.args[0].mutable
        call2 = fn.body.stmts[2].expr
        assert not call2.args[0].mutable

    def test_if_as_expression(self):
        source = "fn f(z: bool) -> i32 { let r = if z { 1 } else { 2 }; r }"
        fn = parse_program(source).function("f")
        let_stmt = fn.body.stmts[0]
        assert isinstance(let_stmt.init, ast.IfExpr)

    def test_else_if_chain(self):
        source = "fn f(x: i32) -> i32 { if x > 0 { 1 } else if x < 0 { 2 } else { 3 } }"
        fn = parse_program(source).function("f")
        outer = fn.body.tail
        assert isinstance(outer, ast.IfExpr)
        assert isinstance(outer.else_block.tail, ast.IfExpr)

    def test_struct_definition_with_attrs(self):
        source = """
        #[flux::refined_by(size: int)]
        struct VecWrapper {
            #[flux::field(RVec<i32>[size])]
            items: RVec<i32>,
        }
        """
        program = parse_program(source)
        struct = program.structs[0]
        assert struct.name == "VecWrapper"
        assert struct.attrs[0].name == "flux::refined_by"
        assert struct.fields[0].attrs[0].name == "flux::field"

    def test_enum_and_match(self):
        source = """
        enum List<T> {
            Nil,
            Cons(T, Box<List<T>>),
        }

        impl<T> List<T> {
            fn len(&self) -> usize {
                match self {
                    List::Cons(_, tl) => 1 + tl.len(),
                    List::Nil => 0,
                }
            }
        }
        """
        program = parse_program(source)
        assert program.enums[0].variants[0].name == "Nil"
        assert program.enums[0].variants[1].fields
        fn = program.function("List::len")
        assert fn.params[0].name == "self"
        assert isinstance(fn.body.tail, ast.MatchExpr)

    def test_impl_block_method_naming(self):
        source = """
        struct Counter { value: i32 }
        impl Counter {
            fn increment(&mut self) { self.value += 1; }
        }
        """
        program = parse_program(source)
        fn = program.function("Counter::increment")
        assert isinstance(fn.params[0].ty, ast.TyRef)

    def test_macro_statement(self):
        source = "fn f(n: usize) { let mut i = 0; while i < n { body_invariant!(i <= n); i += 1; } }"
        fn = parse_program(source).function("f")
        loop_stmt = fn.body.stmts[1]
        macro = loop_stmt.body.stmts[0]
        assert isinstance(macro, ast.MacroStmt)
        assert macro.name == "body_invariant"
        assert "<=" in macro.tokens

    def test_prusti_attributes(self):
        source = """
        #[requires(idx < self.len())]
        #[ensures(self.len() == old(self.len()))]
        fn store(self: &mut RVec<i32>, idx: usize, value: i32) { }
        """
        fn = parse_program(source).function("store")
        assert [a.name for a in fn.attrs] == ["requires", "ensures"]

    def test_generic_function(self):
        source = "fn swap_wrap<T>(x: &mut T, y: &mut T) { swap(x, y); }"
        fn = parse_program(source).function("swap_wrap")
        assert fn.generics == ("T",)

    def test_struct_literal(self):
        source = "fn mk() -> Point { Point { x: 1, y: 2 } }"
        fn = parse_program(source).function("mk")
        assert isinstance(fn.body.tail, ast.StructLit)

    def test_no_struct_literal_in_condition(self):
        source = "fn f(p: Point) { while p { } }"
        fn = parse_program(source).function("f")
        assert isinstance(fn.body.stmts[0], ast.WhileStmt)

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_program("fn broken( { }")

    def test_cast_expression(self):
        source = "fn f(x: i32) -> usize { x as usize }"
        fn = parse_program(source).function("f")
        assert isinstance(fn.body.tail, ast.CastExpr)

    def test_nested_generics(self):
        source = "fn f(m: &mut RVec<RVec<f32>>) { }"
        fn = parse_program(source).function("f")
        inner = fn.params[0].ty.inner
        assert inner.name == "RVec"
        assert inner.args[0].name == "RVec"


def _sweep_sources():
    from pathlib import Path

    from repro.bench.programs import benchmark_programs

    tests = Path(__file__).resolve().parent
    sources = [program.flux_source for program in benchmark_programs()]
    sources += [path.read_text() for path in sorted((tests / "golden").glob("*.rs"))]
    sources += [path.read_text() for path in sorted((tests / "corpus").glob("*.rs"))]
    return sources


class TestUseAtEndOfInput:
    def test_unterminated_use_is_a_parse_error(self):
        from repro import faults

        for source in ("use foo::bar", "use foo", "fn f() {}\nuse"):
            with faults.enforce_deadline(1.0), pytest.raises(ParseError, match="expected ';'"):
                parse_program(source)

    def test_no_line_prefix_hangs(self):
        # Every line prefix of the Table-1, golden and corpus sources, and
        # the same prefix with a trailing ``use``, parses or raises a
        # LexError/ParseError within a second (a ``use`` at end of input
        # used to spin on the eof token for ever).
        from repro import faults

        checked = 0
        for source in _sweep_sources():
            lines = source.splitlines(keepends=True)
            for end in range(1, len(lines) + 1):
                prefix = "".join(lines[:end])
                for text in (prefix, prefix + "use foo"):
                    with faults.enforce_deadline(1.0):
                        try:
                            parse_program(text)
                        except (LexError, ParseError):
                            pass
                    checked += 1
        assert checked > 800
