"""Seeded inputs of the three workloads.

Everything here is a pure function of ``--seed``: the same seed gives the
same program order, the same crate and the same edit sequence.  The
verifier only ever sees the generated sources.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench.programs import BenchmarkProgram, benchmark_programs
from repro.fuzz.generator import GeneratedFunction, crate_seed, generate_crate
from repro.service import VerifyJob

#: The crate's contents are fixed: the first ``CRATE_FUNCTIONS`` functions
#: of the seed-0 stress crate (1,164 functions in full; a generated
#: function only calls earlier ones, so every prefix is a well-formed
#: crate).  Crates drawn per seed differ in size (300 to 1,200 functions)
#: and in cost per function (two 800-function crates took 7.2s and 6.4s
#: cold), which would let the seed, not the code, decide the figures.  The
#: seed instead orders the definitions and draws the edits.
CRATE_FUNCTIONS = 400

#: Scheduler workers on ``crate-cold``.  Serial: with two pool workers on
#: a shared 2-core machine, scaled times still spread by 15-28% between
#: runs, because the reference task samples one core between requests
#: while the pool's speed depends on both cores throughout them.
CRATE_JOBS = 1

#: Every k-th edit rewrites a spec instead of a body.
SPEC_EDIT_EVERY = 5

_AFFINE_SIG = re.compile(r"^(#\[flux::sig\(fn\(x: i32\[@x\]\) -> i32\[)(.*)(\]\)\])$")


def table1_programs(seed: int) -> List[BenchmarkProgram]:
    """The nine Table-1 programs in a seeded order."""
    programs = list(benchmark_programs())
    random.Random(seed).shuffle(programs)
    return programs


def table1_job(program: BenchmarkProgram) -> VerifyJob:
    return VerifyJob(
        source=program.flux_source, name=program.name, only=tuple(program.flux_functions)
    )


def stress_crate(seed: int) -> Tuple[GeneratedFunction, ...]:
    """The benchmark crate, its definitions in the seed's order."""
    functions = list(generate_crate(crate_seed(0, 0), "stress").functions[:CRATE_FUNCTIONS])
    random.Random(seed).shuffle(functions)
    return tuple(functions)


def crate_source(functions: Sequence[GeneratedFunction]) -> str:
    return "\n".join(fn.source for fn in functions)


def crate_verdicts(functions: Sequence[GeneratedFunction]) -> Dict[str, bool]:
    """The reference verdicts: the generator's ``should_verify``."""
    return {fn.name: fn.should_verify for fn in functions}


@dataclass(frozen=True)
class Edit:
    """One submitted version of the crate."""

    source: str
    kind: str  # "body" | "spec"
    function: str


class EditSequence:
    """A seeded stream of single-function edits that keep every verdict.

    A body edit puts a fresh unused ``let`` at the top of one function's
    body, so only that function is re-keyed.  Every ``SPEC_EDIT_EVERY``-th
    edit instead rewrites the return index ``e`` of an affine spec that has
    callers to ``e + n - n``: same meaning, new interface, so the function
    and its direct callers are re-keyed.  Edits accumulate like edits in
    an editor buffer, and the edit number appears in the text, so no two
    submitted sources are equal and daemon dedup never answers a request.
    """

    def __init__(self, functions: Sequence[GeneratedFunction], seed: int) -> None:
        self.functions = tuple(functions)
        self._rng = random.Random(f"edits-{seed}")
        self._body_marks: Dict[int, int] = {}
        self._spec_marks: Dict[int, int] = {}
        called = {callee for fn in self.functions for callee in fn.calls}
        self._spec_targets = [
            index
            for index, fn in enumerate(self.functions)
            if fn.name in called and _AFFINE_SIG.match(fn.source.splitlines()[0])
        ]
        self._sources = [fn.source for fn in self.functions]
        self.count = 0

    def _render(self, index: int) -> str:
        lines = self.functions[index].source.splitlines()
        spec_mark = self._spec_marks.get(index)
        if spec_mark is not None:
            head, expr, tail = _AFFINE_SIG.match(lines[0]).groups()
            lines[0] = f"{head}{expr} + {spec_mark} - {spec_mark}{tail}"
        body_mark = self._body_marks.get(index)
        if body_mark is not None:
            header = next(i for i, line in enumerate(lines) if line.startswith("fn "))
            lines.insert(header + 1, f"    let edit_{body_mark} = {body_mark};")
        return "\n".join(lines)

    def next(self) -> Edit:
        self.count += 1
        if self.count % SPEC_EDIT_EVERY == 0 and self._spec_targets:
            index = self._rng.choice(self._spec_targets)
            self._spec_marks[index] = self.count
            kind = "spec"
        else:
            index = self._rng.randrange(len(self.functions))
            self._body_marks[index] = self.count
            kind = "body"
        self._sources[index] = self._render(index)
        return Edit("\n".join(self._sources), kind, self.functions[index].name)
