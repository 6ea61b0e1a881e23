"""Seeded, grammar-driven generator of well-typed MiniRust crates.

Programs are assembled from weighted *productions*, each of which emits one
function that is well-typed by construction and whose ``#[flux::sig]`` spec
exercises a distinct corner of the specification grammar
(``docs/spec-language.md``): indexed types ``B[e]``, binder positions
``B[@n]``, existentials ``B{v: p}``, the combined ``B[@n]{v: p}``
requires-form, ``&strg`` references with ``ensures`` clauses, and loops
whose invariants must be inferred through join templates (κ fixpoint
solving).  A slice of the grammar deliberately emits *failing* specs
(off-by-one postconditions, out-of-bounds reads): differential oracles must
agree on failures exactly as on successes, and the error path is where
divergences historically hide.

Calls: each generated function advertises a :class:`CallShape` describing
how later functions may invoke it.  Caller productions compose previously
generated callees — affine chains, vector builders piped into checked reads
— so a crate of N functions carries a realistic call DAG, which is what
stresses the callee-first scheduler and the content-addressed cache
(interface edits must invalidate exactly the dependents).

Determinism: everything derives from ``random.Random(seed)``.  The same
``(seed, profile)`` always yields the same crate, byte for byte — the
property that makes ``BENCH_fuzz.json`` worst cases and corpus entries
reproducible from their seeds alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "GeneratedCrate",
    "GeneratedFunction",
    "Profile",
    "PROFILES",
    "crate_seed",
    "generate_crate",
]


@dataclass(frozen=True)
class CallShape:
    """How callers may use a generated function.

    ``kind`` names the calling convention; ``k`` carries the shape's numeric
    payload (the affine offset for ``affine``, unused otherwise).
    """

    kind: str  # "affine" | "nat_to_nat" | "vec_build" | "vec_len"
    k: int = 0


@dataclass(frozen=True)
class GeneratedFunction:
    name: str
    source: str
    template: str
    #: Whether the spec is satisfiable by the body (``False`` for the
    #: deliberate-failure productions; both oracles must agree either way).
    should_verify: bool
    calls: Tuple[str, ...] = ()
    shape: Optional[CallShape] = None


@dataclass(frozen=True)
class GeneratedCrate:
    seed: int
    profile: str
    functions: Tuple[GeneratedFunction, ...]

    @property
    def source(self) -> str:
        return "\n".join(fn.source for fn in self.functions)

    @property
    def expected_failures(self) -> Tuple[str, ...]:
        return tuple(fn.name for fn in self.functions if not fn.should_verify)


@dataclass(frozen=True)
class Profile:
    """A crate-size profile: how many functions and which grammar slice."""

    name: str
    min_functions: int
    max_functions: int
    #: Probability that a production is drawn from the loop (κ-inference)
    #: slice rather than the straight-line slice.
    loop_weight: float = 0.35
    #: Probability that a production composes previously generated callees.
    call_weight: float = 0.35
    #: Probability of a deliberately failing spec.
    failure_weight: float = 0.08


PROFILES: Dict[str, Profile] = {
    # Differential-throughput shape: the CI fuzz lane and the default CLI
    # budget runs want many cheap crates over few expensive ones.
    "tiny": Profile("tiny", 1, 3),
    "small": Profile("small", 2, 8),
    # Scheduler/cache stress: realistic call DAGs over many functions.
    "crate": Profile("crate", 40, 120, call_weight=0.5),
    "stress": Profile("stress", 300, 1200, call_weight=0.6, failure_weight=0.02),
}


def crate_seed(seed: int, index: int) -> int:
    """The derived seed of crate ``index`` within a fuzz run seeded ``seed``.

    A splitmix-style mix keeps neighbouring run seeds from producing
    overlapping crate streams.
    """
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return x & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Productions.  Each takes (rng, name, context) and returns a GeneratedFunction.
# ``context`` is the list of functions generated so far in this crate.
# ---------------------------------------------------------------------------

_Context = List[GeneratedFunction]
_Production = Callable[[Random, str, _Context], GeneratedFunction]


def _affine(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """``fn(x: i32) -> i32[x + k]`` computed in one or more steps."""
    k = rng.randint(-5, 9)
    steps = rng.randint(1, 3)
    cuts = sorted(rng.randint(-4, 8) for _ in range(steps - 1))
    parts = []
    prev = 0
    for cut in cuts:
        parts.append(cut - prev)
        prev = cut
    parts.append(k - prev)
    body_lines = ["    let mut acc = x;"]
    for part in parts:
        if part >= 0:
            body_lines.append(f"    acc = acc + {part};")
        else:
            body_lines.append(f"    acc = acc - {-part};")
    body_lines.append("    acc")
    index = f"x + {k}" if k >= 0 else f"x - {-k}"
    source = "\n".join(
        [
            f"#[flux::sig(fn(x: i32[@x]) -> i32[{index}])]",
            f"fn {name}(x: i32) -> i32 {{",
            *body_lines,
            "}",
        ]
    )
    return GeneratedFunction(
        name, source, "affine", True, shape=CallShape("affine", k)
    )


def _affine_wrong(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """An affine spec off by one: the return obligation must fail."""
    k = rng.randint(0, 6)
    index = f"x + {k}"
    source = "\n".join(
        [
            f"#[flux::sig(fn(x: i32[@x]) -> i32[{index}])]",
            f"fn {name}(x: i32) -> i32 {{",
            f"    x + {k + 1}",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "affine_wrong", False)


def _clamp(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """``fn(i32) -> nat`` via branching — an existential postcondition.

    Floors stay within {0, 1}: the join at the ``if`` goes through a κ
    template whose solution is drawn from the fixed qualifier vocabulary,
    which bounds against 0 and 1 but not arbitrary constants — ``v >= 2``
    is true of the body yet outside the checker's inference power, and the
    generator promises programs that *verify*, not merely hold.
    """
    floor = rng.randint(0, 1)
    source = "\n".join(
        [
            f"#[flux::sig(fn(x: i32) -> i32{{v: v >= {floor}}})]",
            f"fn {name}(x: i32) -> i32 {{",
            f"    if x > {floor} {{ x }} else {{ {floor} }}",
            "}",
        ]
    )
    return GeneratedFunction(
        name, source, "clamp", True, shape=CallShape("nat_to_nat") if floor == 0 else None
    )


def _max_of(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """Two-argument maximum with a conjunctive existential postcondition."""
    source = "\n".join(
        [
            "#[flux::sig(fn(a: i32[@a], b: i32[@b]) -> i32{v: v >= a && v >= b})]",
            f"fn {name}(a: i32, b: i32) -> i32 {{",
            "    if a > b { a } else { b }",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "max_of", True)


def _abs_diff_wrong(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """A strict bound the body only meets non-strictly: must fail."""
    source = "\n".join(
        [
            "#[flux::sig(fn(a: i32, b: i32) -> i32{v: v > 0})]",
            f"fn {name}(a: i32, b: i32) -> i32 {{",
            "    if a > b { a - b } else { b - a }",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "abs_diff_wrong", False)


def _count_up(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """``fn(n: nat) -> i32[n]`` — loop invariant inferred via κ templates."""
    step_two = rng.random() < 0.3
    if step_two:
        body = [
            "    let mut i = 0;",
            "    let mut acc = 0;",
            "    while i < n {",
            "        i += 1;",
            "        acc += 1;",
            "    }",
            "    acc",
        ]
    else:
        body = [
            "    let mut i = 0;",
            "    while i < n {",
            "        i += 1;",
            "    }",
            "    i",
        ]
    source = "\n".join(
        [
            "#[flux::sig(fn(n: i32[@n]{v: v >= 0}) -> i32[n])]",
            f"fn {name}(n: i32) -> i32 {{",
            *body,
            "}",
        ]
    )
    return GeneratedFunction(
        name, source, "count_up", True, shape=CallShape("nat_to_nat")
    )


def _sum_at_least(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """``fn(n: nat) -> i32{v: v >= n}`` — relational invariant ``acc >= i``."""
    stride = rng.randint(1, 2)
    source = "\n".join(
        [
            "#[flux::sig(fn(n: i32[@n]{v: v >= 0}) -> i32{v: v >= n})]",
            f"fn {name}(n: i32) -> i32 {{",
            "    let mut i = 0;",
            "    let mut acc = 0;",
            "    while i < n {",
            "        i += 1;",
            f"        acc += {stride};",
            "    }",
            "    acc",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "sum_at_least", True)


def _count_up_wrong(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """Loop overshoots its postcondition index by one: must fail."""
    source = "\n".join(
        [
            "#[flux::sig(fn(n: i32[@n]{v: v >= 0}) -> i32[n])]",
            f"fn {name}(n: i32) -> i32 {{",
            "    let mut i = 0;",
            "    while i < n {",
            "        i += 1;",
            "    }",
            "    i + 1",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "count_up_wrong", False)


def _vec_build(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """``fn(n: nat) -> RVec<i32>[n]`` — push loop, length index inferred."""
    fill = rng.randint(0, 7)
    source = "\n".join(
        [
            "#[flux::sig(fn(n: usize[@n]) -> RVec<i32>[n])]",
            f"fn {name}(n: usize) -> RVec<i32> {{",
            "    let mut items = RVec::new();",
            "    let mut i = 0;",
            "    while i < n {",
            f"        items.push({fill});",
            "        i += 1;",
            "    }",
            "    items",
            "}",
        ]
    )
    return GeneratedFunction(
        name, source, "vec_build", True, shape=CallShape("vec_build")
    )


def _vec_read(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """Checked indexing: ``usize{v: v < n}`` precondition guards ``get``."""
    source = "\n".join(
        [
            "#[flux::sig(fn(items: &RVec<i32>[@n], i: usize{v: v < n}) -> i32)]",
            f"fn {name}(items: &RVec<i32>, i: usize) -> i32 {{",
            "    *items.get(i)",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "vec_read", True)


def _vec_first(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """Combined form ``RVec<i32>[@n]{v: v > 0}`` — a signature requirement."""
    source = "\n".join(
        [
            "#[flux::sig(fn(items: &RVec<i32>[@n]{v: v > 0}) -> i32)]",
            f"fn {name}(items: &RVec<i32>) -> i32 {{",
            "    *items.get(0)",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "vec_first", True)


def _vec_sum(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """Iterate a borrowed vector: loop bound from ``len``, checked ``get``."""
    source = "\n".join(
        [
            "#[flux::sig(fn(items: &RVec<i32>[@n]) -> i32)]",
            f"fn {name}(items: &RVec<i32>) -> i32 {{",
            "    let mut i = 0;",
            "    let mut total = 0;",
            "    while i < items.len() {",
            "        total += *items.get(i);",
            "        i += 1;",
            "    }",
            "    total",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "vec_sum", True)


def _vec_push_strg(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """``&strg`` + ``ensures``: the callee grows the vector by exactly one."""
    source = "\n".join(
        [
            "#[flux::sig(fn(items: &strg RVec<i32>[@n], value: i32) "
            "ensures *items: RVec<i32>[n + 1])]",
            f"fn {name}(items: &mut RVec<i32>, value: i32) {{",
            "    items.push(value);",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "vec_push_strg", True)


def _vec_read_wrong(rng: Random, name: str, _: _Context) -> GeneratedFunction:
    """Out-of-bounds read (index ``n`` of an ``[@n]`` vector): must fail."""
    source = "\n".join(
        [
            "#[flux::sig(fn(items: &RVec<i32>[@n]) -> i32)]",
            f"fn {name}(items: &RVec<i32>) -> i32 {{",
            "    *items.get(items.len())",
            "}",
        ]
    )
    return GeneratedFunction(name, source, "vec_read_wrong", False)


# -- caller productions (consume earlier functions) --------------------------


def _shapes(context: _Context, kind: str) -> List[GeneratedFunction]:
    return [
        fn for fn in context if fn.shape is not None and fn.shape.kind == kind
    ]


def _affine_chain(rng: Random, name: str, context: _Context) -> Optional[GeneratedFunction]:
    """Compose 1–3 affine callees; the spec sums their offsets."""
    callees = _shapes(context, "affine")
    if not callees:
        return None
    chain = [rng.choice(callees) for _ in range(rng.randint(1, min(3, len(callees))))]
    total = sum(fn.shape.k for fn in chain)
    expr = "x"
    for fn in chain:
        expr = f"{fn.name}({expr})"
    index = f"x + {total}" if total >= 0 else f"x - {-total}"
    source = "\n".join(
        [
            f"#[flux::sig(fn(x: i32[@x]) -> i32[{index}])]",
            f"fn {name}(x: i32) -> i32 {{",
            f"    {expr}",
            "}",
        ]
    )
    return GeneratedFunction(
        name,
        source,
        "affine_chain",
        True,
        calls=tuple(dict.fromkeys(fn.name for fn in chain)),
        shape=CallShape("affine", total),
    )


def _nat_pipeline(rng: Random, name: str, context: _Context) -> Optional[GeneratedFunction]:
    """Pipe a nat through a nat-preserving callee, keeping ``v >= 0``."""
    callees = _shapes(context, "nat_to_nat")
    if not callees:
        return None
    callee = rng.choice(callees)
    source = "\n".join(
        [
            "#[flux::sig(fn(n: i32[@n]{v: v >= 0}) -> i32{v: v >= 0})]",
            f"fn {name}(n: i32) -> i32 {{",
            f"    {callee.name}(n)",
            "}",
        ]
    )
    return GeneratedFunction(
        name,
        source,
        "nat_pipeline",
        True,
        calls=(callee.name,),
        shape=CallShape("nat_to_nat"),
    )


def _build_and_read(rng: Random, name: str, context: _Context) -> Optional[GeneratedFunction]:
    """Build a vector with a callee, then read a guarded index from it."""
    builders = _shapes(context, "vec_build")
    if not builders:
        return None
    builder = rng.choice(builders)
    source = "\n".join(
        [
            "#[flux::sig(fn(n: usize[@n]{v: v > 0}) -> i32)]",
            f"fn {name}(n: usize) -> i32 {{",
            f"    let items = {builder.name}(n);",
            "    *items.get(0)",
            "}",
        ]
    )
    return GeneratedFunction(
        name, source, "build_and_read", True, calls=(builder.name,)
    )


# Straight-line grammar slice: (weight, production, needs_context)
_STRAIGHT: List[Tuple[float, _Production]] = [
    (4.0, _affine),
    (2.0, _clamp),
    (2.0, _max_of),
    (2.0, _vec_read),
    (1.5, _vec_first),
    (1.5, _vec_push_strg),
]

_LOOPS: List[Tuple[float, _Production]] = [
    (3.0, _count_up),
    (2.0, _sum_at_least),
    (2.0, _vec_build),
    (2.0, _vec_sum),
]

_FAILING: List[Tuple[float, _Production]] = [
    (2.0, _affine_wrong),
    (1.0, _abs_diff_wrong),
    (1.0, _count_up_wrong),
    (1.0, _vec_read_wrong),
]

_CALLERS: List[Tuple[float, Callable[[Random, str, _Context], Optional[GeneratedFunction]]]] = [
    (3.0, _affine_chain),
    (2.0, _nat_pipeline),
    (2.0, _build_and_read),
]


def _weighted(rng: Random, table):
    total = sum(weight for weight, _ in table)
    point = rng.random() * total
    for weight, production in table:
        point -= weight
        if point <= 0:
            return production
    return table[-1][1]


def generate_crate(seed: int, profile: str = "small") -> GeneratedCrate:
    """Generate one deterministic crate from ``seed`` under ``profile``."""
    spec = PROFILES.get(profile)
    if spec is None:
        raise ValueError(
            f"unknown fuzz profile {profile!r} (choose from {sorted(PROFILES)})"
        )
    rng = Random(seed)
    count = rng.randint(spec.min_functions, spec.max_functions)
    functions: List[GeneratedFunction] = []
    for index in range(count):
        name = f"fn_{index}_{rng.randrange(16**4):04x}"
        draw = rng.random()
        produced: Optional[GeneratedFunction] = None
        if draw < spec.failure_weight:
            produced = _weighted(rng, _FAILING)(rng, name, functions)
        elif draw < spec.failure_weight + spec.call_weight and functions:
            produced = _weighted(rng, _CALLERS)(rng, name, functions)
        if produced is None:
            table = _LOOPS if rng.random() < spec.loop_weight else _STRAIGHT
            produced = _weighted(rng, table)(rng, name, functions)
        functions.append(produced)
    return GeneratedCrate(seed=seed, profile=profile, functions=tuple(functions))
