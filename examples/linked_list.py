"""The refined linked list of Fig. 5: an enum indexed by its length.

This example exercises refined algebraic data types: the ``#[flux::refined_by]``
and ``#[flux::variant]`` attributes, constructor checking, and match-based
length reasoning.

Run with:  python examples/linked_list.py
"""

from repro.service import verify_source

SOURCE = """
#[flux::refined_by(len: int)]
enum List {
    #[flux::variant(List[0])]
    Nil,
    #[flux::variant((i32, Box<List[@n]>) -> List[n + 1])]
    Cons(i32, Box<List>),
}

#[flux::sig(fn() -> List[0])]
fn empty() -> List {
    List::Nil()
}

#[flux::sig(fn(i32) -> List[2])]
fn two(x: i32) -> List {
    List::Cons(x, Box::new(List::Cons(x, Box::new(List::Nil()))))
}

#[flux::sig(fn(i32, List[@n]) -> List[n + 1])]
fn push_front(x: i32, rest: List) -> List {
    List::Cons(x, Box::new(rest))
}
"""

WRONG = """
#[flux::refined_by(len: int)]
enum List {
    #[flux::variant(List[0])]
    Nil,
    #[flux::variant((i32, Box<List[@n]>) -> List[n + 1])]
    Cons(i32, Box<List>),
}

// claims to return a 2-element list but builds a singleton
#[flux::sig(fn(i32) -> List[2])]
fn two(x: i32) -> List {
    List::Cons(x, Box::new(List::Nil()))
}
"""


def main() -> None:
    print("== refined linked list (Fig. 5) ==")
    result = verify_source(SOURCE)
    print(result.summary())

    print()
    print("== wrong length index is rejected ==")
    wrong = verify_source(WRONG)
    for diagnostic in wrong.diagnostics:
        print("  error:", diagnostic)
    assert not wrong.ok


if __name__ == "__main__":
    main()
