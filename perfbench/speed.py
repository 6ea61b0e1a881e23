"""Times to verdict at a fixed machine speed.

The benchmark runs on shared machines whose speed drifts by up to 1.8x
over seconds to minutes, with the process's CPU time drifting alongside
its wall time (other tenants contend for the same cores and caches).  A
run of 25 s can sit wholly in a fast or a slow stretch, so raw times of
the same code spread by 30-50% from run to run.

Every timed interval is therefore accompanied by samples of a fixed
pure-Python reference task that depends on nothing in the verifier,
and reported at the reference speed::

    scaled = elapsed * REFERENCE_S / mean(reference samples)

A change to the verifier moves ``elapsed`` and leaves the reference
alone, so it moves the scaled time by the same factor; a change in the
machine's speed moves both.  On a 2-core shared machine this cut the
spread of 1.5 s windows of one Table-1 program from 37% to 7-8%.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, TypeVar

T = TypeVar("T")

#: The reference task's time at the speed every figure is reported at,
#: about its time on an unloaded 2-core machine; scaled times are then
#: close to raw seconds there.
REFERENCE_S = 0.0055
#: Timings per reference sample; the sample is their median.
REPEATS = 3
#: CPU seconds of this process between samples taken inside an interval.
SAMPLE_EVERY_S = 0.5


@dataclass(frozen=True)
class _Term:
    op: str
    args: tuple


def _build(depth: int, index: int) -> _Term:
    if depth == 0:
        return _Term("var", (f"x{index % 7}",))
    op = "add" if index % 2 else "mul"
    return _Term(op, (_build(depth - 1, 2 * index), _build(depth - 1, 2 * index + 1)))


def _normalize(term: _Term, memo: Dict[_Term, _Term]) -> _Term:
    found = memo.get(term)
    if found is not None:
        return found
    if term.op == "var":
        result = term
    else:
        left, right = (_normalize(arg, memo) for arg in term.args)
        args = (left,) if left == right else tuple(sorted((left, right), key=repr))
        result = _Term(term.op, args)
    memo[term] = result
    return result


def reference_task() -> int:
    """Symbolic rewriting (hashing, dict lookups, small allocations,
    recursion) and an integer loop: the kinds of work the verifier does."""
    _normalize(_build(8, 1), {})
    total = 0
    for value in range(20000):
        total += value * value % 7
    return total


def reference_time() -> float:
    """One reference sample: the median of ``REPEATS`` timings."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class ScaledClock:
    """Times a sequence of intervals, each between two reference samples.

    The sample taken after one interval is the one before the next, so a
    closed loop of requests costs one reference sample per request.
    ``raw`` and ``scaled`` hold every interval's time, in order.

    With ``sample_inside``, a ``SIGPROF`` timer also takes a sample every
    ``SAMPLE_EVERY_S`` of CPU time during the interval, which tracks the
    machine's speed through requests that last seconds.  A sample pauses
    the work and its time is left out of the interval, so this is only
    for work that runs on this process's main thread alone.
    """

    def __init__(self, sample_inside: bool = False) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self._sample_inside = sample_inside
        self._before = reference_time()

    def time(self, work: Callable[[], T]) -> T:
        samples = [self._before]
        paused = 0.0

        def sample(signum, frame) -> None:
            nonlocal paused
            started = time.perf_counter()
            samples.append(reference_time())
            paused += time.perf_counter() - started

        if self._sample_inside:
            previous = signal.signal(signal.SIGPROF, sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        started = time.perf_counter()
        try:
            result = work()
        finally:
            elapsed = time.perf_counter() - started
            if self._sample_inside:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
        elapsed -= paused
        self._before = reference_time()
        samples.append(self._before)
        self.raw.append(elapsed)
        self.scaled.append(elapsed * REFERENCE_S / statistics.fmean(samples))
        return result
