"""The collector scope of a verification session.

While a :class:`~repro.service.VerifySession` is active, the cyclic garbage
collector runs with the generation-0 threshold ``GC_THRESHOLD``; the exit of
the outermost activation restores the thresholds it found and records the
collector's pauses as the session counter ``gc.pause_seconds``.
"""

import gc
import sys
import threading

import pytest

from repro.bench.programs import benchmark_programs
from repro.fixpoint import FixpointSolver
from repro.service import VerifyJob, VerifySession, verify_job, verify_jobs
from repro.service.session import GC_THRESHOLD

INC = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc(x: i32) -> i32 { x + 1 }
"""


@pytest.fixture
def found():
    """Thresholds unlike CPython's defaults, so a restore that resets to
    the defaults instead of to what it found shows."""
    original = gc.get_threshold()
    gc.set_threshold(701, 11, 12)
    yield gc.get_threshold()
    gc.set_threshold(*original)


def _solve_spy(monkeypatch, seen):
    solve = FixpointSolver.solve

    def spy(self, *args, **kwargs):
        seen.append(gc.get_threshold())
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(FixpointSolver, "solve", spy)


def test_threshold_is_raised_while_a_job_verifies(found, monkeypatch):
    seen = []
    _solve_spy(monkeypatch, seen)
    report = verify_job(VerifyJob(source=INC), VerifySession(use_cache=False))
    assert report.ok
    assert seen and all(threshold == (GC_THRESHOLD, 11, 12) for threshold in seen)
    assert gc.get_threshold() == found


def test_thresholds_are_restored_after_an_exception_in_the_job(found, monkeypatch):
    seen = []

    def fail(self, *args, **kwargs):
        seen.append(gc.get_threshold()[0])
        raise RuntimeError("solver failed")

    monkeypatch.setattr(FixpointSolver, "solve", fail)
    with pytest.raises(RuntimeError, match="solver failed"):
        verify_job(VerifyJob(source=INC), VerifySession(use_cache=False))
    assert seen == [GC_THRESHOLD]
    assert gc.get_threshold() == found


def test_nested_activation_keeps_the_scope_until_the_outermost_exit(found, monkeypatch):
    seen = []
    _solve_spy(monkeypatch, seen)
    outer = VerifySession(use_cache=False)
    with outer.activate():
        # verify_job activates the session again; its exit is not the last.
        assert verify_job(VerifyJob(source=INC), outer).ok
        assert gc.get_threshold()[0] == GC_THRESHOLD
        with VerifySession().activate():
            pass
        assert gc.get_threshold()[0] == GC_THRESHOLD
        assert "gc.pause_seconds" not in outer.metrics_snapshot()
    assert seen and all(threshold[0] == GC_THRESHOLD for threshold in seen)
    assert gc.get_threshold() == found
    assert outer.metrics_snapshot()["gc.pause_seconds"]["unit"] == "seconds"


def test_concurrent_activations_share_one_scope(found):
    # Sessions may verify concurrently in one process; the collector is
    # process-wide, so no thread's exit may restore the thresholds while
    # another thread's activation is still open.
    wrong = []

    def activate_repeatedly():
        session = VerifySession()
        for _ in range(200):
            with session.activate():
                if gc.get_threshold()[0] != GC_THRESHOLD:
                    wrong.append(gc.get_threshold())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=activate_repeatedly) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert gc.get_threshold() == found


class _Node:
    __slots__ = ("other",)


def test_collector_still_reclaims_cycles_inside_a_session():
    collected = []

    def count(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.callbacks.append(count)
    try:
        with VerifySession().activate():
            for _ in range(3 * GC_THRESHOLD):
                first, second = _Node(), _Node()
                first.other, second.other = second, first
    finally:
        gc.callbacks.remove(count)
    # Each unreachable pair is two objects; a disabled collector frees none.
    assert sum(collected) >= GC_THRESHOLD


def test_pause_seconds_are_recorded_for_a_table1_program():
    (kmp,) = [program for program in benchmark_programs() if program.name == "kmp"]
    runs = []

    def count(phase, info):
        if phase == "stop":
            runs.append(info["generation"])

    session = VerifySession()
    gc.callbacks.append(count)
    try:
        report = verify_jobs(
            [VerifyJob(source=kmp.flux_source, name="kmp", only=tuple(kmp.flux_functions))],
            session,
        )
    finally:
        gc.callbacks.remove(count)
    assert report.ok
    # kmp's verification leaves enough cyclic garbage for a collection.
    assert runs
    entry = report.metrics["gc.pause_seconds"]
    assert (entry["kind"], entry["unit"]) == ("counter", "seconds")
    assert entry["value"] > 0


def test_exit_runs_the_pending_young_collection_under_the_timer(found):
    # More young objects than the found threshold are pending when the
    # period ends: the exit collects them itself, under the session's
    # policy and timer, instead of leaving the collection to whichever
    # allocation or eval-loop check comes after the threshold is back.
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(gc.get_threshold()[0])

    session = VerifySession()
    gc.callbacks.append(note)
    try:
        with session.activate():
            kept = [[] for _ in range(2 * found[0])]
            during = len(starts)
        exited = starts[during:]
        more = [[] for _ in range(found[0] // 2)]
        after = starts[during + len(exited):]
    finally:
        gc.callbacks.remove(note)
    assert len(kept) + len(more) > found[0]
    assert exited == [GC_THRESHOLD]
    assert after == []  # none once the period ended
    assert session.metrics.value("gc.pause_seconds") > 0


def test_exit_leaves_a_disabled_collector_alone(found):
    runs = []

    def note(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.disable()
    gc.callbacks.append(note)
    try:
        with VerifySession().activate():
            kept = [[] for _ in range(2 * found[0])]
    finally:
        gc.callbacks.remove(note)
        gc.enable()
    assert kept and runs == []
