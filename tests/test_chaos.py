"""Chaos containment: injected crashes/hangs/OOMs across the scheduler and
daemon must cost structured per-function verdicts — never changed answers,
never orphaned processes."""

import asyncio
import multiprocessing
import os
import signal
import warnings

import pytest

from repro import faults
from repro.core.genv import GlobalEnv
from repro.daemon.protocol import JobRequest
from repro.daemon.queue import JobQueue
from repro.daemon.workers import WorkerPool
from repro.fuzz.oracles import _verdicts
from repro.service.api import VerifyJob, verify_job
from repro.service.session import VerifySession

# Five independent functions so a parallel scheduler always has innocent
# bystanders in flight next to the faulted one.
CRATE = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn f0(x: i32) -> i32 { x + 1 }

#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn f1(x: i32) -> i32 { x + 2 }

#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn f2(x: i32) -> i32 { x + 3 }

#[flux::sig(fn(i32[@x]) -> i32[x])]
fn f3(x: i32) -> i32 { x + 1 }

#[flux::sig(fn(i32[@x]) -> i32{v: v >= x})]
fn f4(x: i32) -> i32 { x }
"""

FAULT_TAGS = ("worker-crashed", "deadline-exceeded", "resource-exhausted")


def _verify(source: str, **session_kwargs):
    session = VerifySession(use_cache=False, **session_kwargs)
    with session.activate():
        report = verify_job(VerifyJob(source=source, name="chaos"), session)
    return report, session


def _by_name(report):
    return {v.name: v for v in _verdicts(report)}


def _plan(*specs: faults.FaultSpec) -> faults.FaultPlan:
    return faults.FaultPlan(seed=0, specs=specs)


@pytest.fixture()
def clean_verdicts():
    report, _ = _verify(CRATE, jobs=2)
    return _by_name(report)


class TestSchedulerContainment:
    def test_sigkilled_worker_costs_one_rerun(self, clean_verdicts):
        # SIGKILL one scheduler worker mid-crate.  attempts=1 makes the
        # crash transient — the injection registry fires it on the
        # function's first attempt only, so its one re-run on a fresh
        # worker must succeed and every verdict must match the clean run
        # byte for byte.
        plan = _plan(
            faults.FaultSpec(site="scheduler.worker", kind="crash", match="f2", attempts=1)
        )
        with faults.inject_faults(plan):
            report, session = _verify(CRATE, jobs=2)
        assert _by_name(report) == clean_verdicts
        # The dead worker's pipe names the one function it was running, so
        # exactly that function re-runs: no bystander rides along.
        assert session.metrics.value("faults.worker_crashes") == 1
        assert session.metrics.value("faults.retries") == 1

    def test_persistent_crash_quarantines_only_target(self, clean_verdicts):
        # A function that kills every worker that touches it runs twice
        # (first attempt plus one re-run) and then alone degrades to
        # WORKER_CRASHED; everyone else's verdict is byte-identical to the
        # clean run, and every function finished in a worker — none fell
        # back to the parent, which would warn.
        plan = _plan(faults.FaultSpec(site="scheduler.worker", kind="crash", match="f2"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with faults.inject_faults(plan):
                report, session = _verify(CRATE, jobs=2)
        verdicts = _by_name(report)
        assert verdicts["f2"].status != "ok"
        assert verdicts["f2"].tags == ("worker-crashed",)
        for name, clean in clean_verdicts.items():
            if name != "f2":
                assert verdicts[name] == clean
        assert session.metrics.value("faults.worker_crashes") == 2
        assert session.metrics.value("faults.retries") == 1

    def test_workers_inherit_the_elaborated_program(self, tmp_path, monkeypatch):
        # Workers fork after the parent elaborated the program: only the
        # parent may ever build a GlobalEnv from it.
        log = tmp_path / "register_program.pids"
        original = GlobalEnv.register_program

        def logged(genv, program, **kwargs):
            with open(log, "a", encoding="ascii") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(genv, program, **kwargs)

        monkeypatch.setattr(GlobalEnv, "register_program", logged)
        report, _ = _verify(CRATE, jobs=2)
        assert len(report.functions) == 5
        assert set(log.read_text().split()) == {str(os.getpid())}

    def test_ctrl_c_mid_run_leaves_no_worker_behind(self):
        # KeyboardInterrupt reaches the parent while both workers hang in
        # an injected fault; the parent must kill them before re-raising.
        baseline = tuple(faults.live_children())
        running = []

        def interrupt(signum, frame):
            running.extend(pid for pid in faults.live_children() if pid not in baseline)
            raise KeyboardInterrupt

        plan = _plan(faults.FaultSpec(site="scheduler.worker", kind="hang", delay=30.0))
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with faults.inject_faults(plan):
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                with pytest.raises(KeyboardInterrupt):
                    _verify(CRATE, jobs=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(running) == 2  # the interrupt landed mid-run
        multiprocessing.active_children()
        assert [pid for pid in faults.live_children() if pid not in baseline] == []

    @pytest.mark.parametrize(
        "kind,tag",
        [("hang", "deadline-exceeded"), ("oom", "resource-exhausted")],
    )
    def test_hang_and_oom_degrade_to_structured_verdicts(
        self, clean_verdicts, kind, tag
    ):
        plan = _plan(
            faults.FaultSpec(
                site="scheduler.worker", kind=kind, match="f2", delay=30.0
            )
        )
        with faults.inject_faults(plan):
            report, _ = _verify(CRATE, jobs=2, fn_deadline=0.5)
        verdicts = _by_name(report)
        assert verdicts["f2"].tags == (tag,)
        for name, clean in clean_verdicts.items():
            if name != "f2":
                assert verdicts[name] == clean

    def test_serial_path_contains_the_same_faults(self, clean_verdicts):
        # jobs=1 has no worker process to kill; the crash surfaces as
        # InjectedCrash and must degrade to the same structured verdict.
        plan = _plan(faults.FaultSpec(site="scheduler.worker", kind="crash", match="f2"))
        with faults.inject_faults(plan):
            report, _ = _verify(CRATE, jobs=1)
        verdicts = _by_name(report)
        assert verdicts["f2"].tags == ("worker-crashed",)
        for name, clean in clean_verdicts.items():
            if name != "f2":
                assert verdicts[name] == clean


class TestDaemonContainment:
    # The daemon half of the injection grid: crash -> retry/WORKER_CRASHED
    # (covered in test_daemon), hang -> TIMEOUT with the worker reaped,
    # oom -> a structured INTERNAL error, never a dead daemon.

    @staticmethod
    def _run_queue_job(plan, *, name, job_timeout=None, job_retries=1):
        async def scenario():
            pool = WorkerPool({"cache_dir": None, "session_jobs": 1}, size=1)
            queue = JobQueue(
                pool, workers=1, job_timeout=job_timeout, job_retries=job_retries
            )
            queue.start()
            record, _ = queue.submit(JobRequest(source=CRATE, name=name))
            while record.active:
                await asyncio.sleep(0.01)
            await queue.stop()
            return record, pool

        with faults.inject_faults(plan):
            return asyncio.run(scenario())

    def test_daemon_hang_times_out_and_reaps_worker(self):
        baseline = tuple(faults.live_children())
        plan = _plan(faults.FaultSpec(site="daemon.job", kind="hang", delay=30.0))
        record, pool = self._run_queue_job(plan, name="hung", job_timeout=0.3)
        assert record.state == "failed"
        assert record.error["kind"] == "TIMEOUT"
        assert pool.retired_total == 1
        multiprocessing.active_children()
        leaked = [pid for pid in faults.live_children() if pid not in baseline]
        assert leaked == []

    def test_daemon_oom_is_structured_error(self):
        plan = _plan(faults.FaultSpec(site="daemon.job", kind="oom"))
        record, pool = self._run_queue_job(plan, name="oom")
        assert record.state == "failed"
        assert record.error["kind"] == "INTERNAL"
        assert "memory" in record.error["message"]
        # The worker caught the MemoryError itself; it was not killed.
        assert pool.retired_total == 0

    def test_daemon_crash_retry_is_counted(self):
        plan = _plan(
            faults.FaultSpec(site="daemon.job", kind="crash", match="flaky", attempts=1)
        )
        record, pool = self._run_queue_job(plan, name="flaky")
        assert record.state == "done"
        assert record.meta["attempts"] == 2
        assert pool.retired_total == 1


class TestChaosCampaign:
    def test_small_campaign_is_divergence_free(self):
        # The fuzz-level chaos harness end to end: parity rule plus the
        # zero-orphan audit over a handful of generated crates.
        from repro.fuzz.driver import FuzzConfig, run_fuzz
        from repro.obs import ObsContext, use_obs

        config = FuzzConfig(seed=1, budget=4, profile="small", chaos=True)
        with use_obs(ObsContext.create()):
            report = run_fuzz(config)
        assert report.crates == 4
        details = [(d.kind, d.detail) for d in report.divergences]
        assert details == []
