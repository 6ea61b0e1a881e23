"""Quickstart: verify a refined MiniRust program with Flux.

Run with:  python examples/quickstart.py
"""

from repro.service import verify_source

SOURCE = """
// Indexed types: i32[n] is the singleton type of integers equal to n.
#[flux::sig(fn(i32[@n]) -> bool[n > 0])]
fn is_pos(n: i32) -> bool {
    if n > 0 { true } else { false }
}

// Existential types: the result is at least x and non-negative.
#[flux::sig(fn(i32[@x]) -> i32{v: v >= x && v >= 0})]
fn abs(x: i32) -> i32 {
    if x < 0 { -x } else { x }
}

// Strong references: the ensures clause gives the *updated* type of *x.
#[flux::sig(fn(x: &strg i32[@n]) ensures *x: i32[n + 1])]
fn incr(x: &mut i32) {
    *x += 1;
}

// Loop invariants are inferred: no annotations needed to prove that the
// returned vector has exactly n elements.
#[flux::sig(fn(usize[@n]) -> RVec<f32>[n])]
fn init_zeros(n: usize) -> RVec<f32> {
    let mut vec = RVec::new();
    let mut i = 0;
    while i < n {
        vec.push(0.0);
        i += 1;
    }
    vec
}
"""

BUGGY = """
// The update may drop below zero, violating the &mut nat invariant.
#[flux::sig(fn(&mut nat))]
fn decr(x: &mut i32) {
    let y = *x;
    *x = y - 1;
}
"""


def main() -> None:
    print("== verifying a correct program ==")
    result = verify_source(SOURCE)
    print(result.summary())
    assert result.ok

    print()
    print("== verifying a buggy program ==")
    result = verify_source(BUGGY)
    print(result.summary())
    for diagnostic in result.diagnostics:
        print("  error:", diagnostic)
    assert not result.ok


if __name__ == "__main__":
    main()
