"""Verify the WaVe-style sandboxing kernels (the paper's second case study).

The security property: every address handed out by the sandbox stays within
the sandbox's memory region, expressed as refinements on a refined struct.

Run with:  python examples/wave_sandbox.py
"""

from repro.bench.programs import WAVE_FLUX
from repro.service import verify_source

BUGGY_TRANSLATE = """
#[flux::refined_by(base: int, size: int)]
struct SandboxMemory {
    #[flux::field(usize[base])]
    base: usize,
    #[flux::field(usize[size])]
    size: usize,
}

// BUG: forgets to add the base, so the returned address may escape the
// sandbox's memory region (it is below base).
#[flux::sig(fn(&SandboxMemory[@b, @s], usize{v: v <= s}) -> usize{v: b <= v && v <= b + s})]
fn translate(sbx: &SandboxMemory, offset: usize) -> usize {
    offset
}
"""


def main() -> None:
    print("== verified sandboxing kernels ==")
    result = verify_source(WAVE_FLUX)
    print(result.summary())

    print()
    print("== an out-of-sandbox bug is caught ==")
    buggy = verify_source(BUGGY_TRANSLATE)
    for diagnostic in buggy.diagnostics:
        print("  error:", diagnostic)
    assert not buggy.ok


if __name__ == "__main__":
    main()
