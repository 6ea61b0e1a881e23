"""The fault layer itself: plans, injection semantics, deadlines, memory
ceilings, the shared worker process, process reaping, the cache tmp sweep,
and the CLI's SIGINT exit code."""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import faults
from repro.faults import procs
from repro.service.cli import main as cli_main
from repro.service.session import VerifySession


def _plan(*specs: faults.FaultSpec, seed: int = 0) -> faults.FaultPlan:
    return faults.FaultPlan(seed=seed, specs=specs)


# ---------------------------------------------------------------------------
# Plans and the registry
# ---------------------------------------------------------------------------


class TestPlans:
    def test_json_round_trip(self):
        plan = _plan(
            faults.FaultSpec(site="scheduler.worker", kind="crash", match="f0"),
            faults.FaultSpec(site="daemon.job", kind="hang", rate=0.5, delay=1.5),
            seed=7,
        )
        again = faults.FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(site="x", kind="nope")
        with pytest.raises(ValueError):
            faults.FaultSpec(site="", kind="crash")
        with pytest.raises(ValueError):
            faults.FaultSpec(site="x", kind="crash", rate=1.5)
        with pytest.raises(ValueError):
            faults.FaultSpec(site="x", kind="hang", delay=-1)

    def test_install_propagates_via_environment(self):
        plan = _plan(faults.FaultSpec(site="s", kind="oom"))
        with faults.inject_faults(plan):
            assert faults.ENV_PLAN in os.environ
            assert json.loads(os.environ[faults.ENV_PLAN])["specs"][0]["kind"] == "oom"
            assert faults.active_plan() == plan
        assert faults.ENV_PLAN not in os.environ
        assert faults.active_plan() is None

    def test_inject_no_plan_is_noop(self):
        faults.clear_plan()
        faults.inject("scheduler.worker", key="anything")  # must not raise


class TestInjection:
    def test_crash_raises_in_non_worker(self):
        plan = _plan(faults.FaultSpec(site="s", kind="crash"))
        with faults.inject_faults(plan):
            with pytest.raises(faults.InjectedCrash):
                faults.inject("s", key="f")

    def test_oom_raises_memory_error(self):
        plan = _plan(faults.FaultSpec(site="s", kind="oom"))
        with faults.inject_faults(plan):
            with pytest.raises(MemoryError):
                faults.inject("s")

    def test_hang_sleeps_for_delay(self):
        plan = _plan(faults.FaultSpec(site="s", kind="hang", delay=0.1))
        with faults.inject_faults(plan):
            started = time.monotonic()
            faults.inject("s")
            assert time.monotonic() - started >= 0.1

    def test_site_and_match_filters(self):
        plan = _plan(faults.FaultSpec(site="s", kind="oom", match="target"))
        with faults.inject_faults(plan):
            faults.inject("other", key="target")  # wrong site
            faults.inject("s", key="bystander")  # wrong key
            with pytest.raises(MemoryError):
                faults.inject("s", key="the-target-fn")

    def test_max_fires_bounds_firings(self):
        plan = _plan(faults.FaultSpec(site="s", kind="oom", max_fires=2))
        with faults.inject_faults(plan):
            for _ in range(2):
                with pytest.raises(MemoryError):
                    faults.inject("s")
            faults.inject("s")  # third call: spent

    def test_attempts_gates_retries(self):
        # attempts=1 models "fail the first attempt, let the retry pass" —
        # the gate that survives process boundaries where fire counters
        # reset with each fresh worker.
        plan = _plan(faults.FaultSpec(site="s", kind="oom", attempts=1))
        with faults.inject_faults(plan):
            faults.set_attempt(1)
            with pytest.raises(MemoryError):
                faults.inject("s")
            faults.set_attempt(2)
            faults.inject("s")  # retry attempt: gated off
            faults.set_attempt(1)
            with pytest.raises(MemoryError):
                faults.inject("s")
        faults.set_attempt(1)

    def test_rate_draws_are_deterministic(self):
        plan = _plan(faults.FaultSpec(site="s", kind="oom", rate=0.5), seed=3)

        def firing_pattern():
            fired = []
            with faults.inject_faults(plan):
                for i in range(20):
                    try:
                        faults.inject("s", key=f"fn{i}")
                        fired.append(False)
                    except MemoryError:
                        fired.append(True)
            return fired

        first = firing_pattern()
        assert any(first) and not all(first)  # rate actually partial
        assert firing_pattern() == first  # same plan -> same schedule

    def test_crash_kills_marked_worker_subprocess(self):
        plan = _plan(faults.FaultSpec(site="s", kind="crash"))

        def child():
            faults.mark_worker()
            faults.inject("s", key="doomed")
            os._exit(0)  # never reached: inject SIGKILLs the process

        with faults.inject_faults(plan):
            context = multiprocessing.get_context("fork")
            process = context.Process(target=child)
            process.start()
            process.join(timeout=10)
        assert process.exitcode == -signal.SIGKILL


# ---------------------------------------------------------------------------
# Deadlines and memory ceilings
# ---------------------------------------------------------------------------


class TestLimits:
    def test_deadline_interrupts_a_hang(self):
        started = time.monotonic()
        with pytest.raises(faults.DeadlineExceeded):
            with faults.enforce_deadline(0.1):
                time.sleep(5.0)
        assert time.monotonic() - started < 2.0

    def test_deadline_noop_when_unset(self):
        with faults.enforce_deadline(None):
            pass
        with faults.enforce_deadline(0):
            pass

    def test_deadline_noop_off_main_thread(self):
        errors = []

        def run():
            try:
                with faults.enforce_deadline(0.05):
                    time.sleep(0.1)  # outlives the deadline: must NOT raise
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert errors == []

    def test_nested_deadlines_restore_outer(self):
        with pytest.raises(faults.DeadlineExceeded):
            with faults.enforce_deadline(0.3):
                with faults.enforce_deadline(10.0):
                    pass  # inner scope exits cleanly, outer timer re-armed
                time.sleep(5.0)  # outer deadline still fires

    def test_memory_limit_enforced_in_subprocess(self):
        def child(queue):
            # The ceiling must be *relative* to the forked child's current
            # address space — forked from a long-running test session the
            # inherited VAS can already dwarf a small absolute limit,
            # making even queue.put fail.
            try:
                with open("/proc/self/status") as fh:
                    vm_kb = next(
                        int(line.split()[1])
                        for line in fh
                        if line.startswith("VmSize:")
                    )
            except (OSError, StopIteration):
                vm_kb = 0
            ok = faults.apply_memory_limit(vm_kb // 1024 + 128)
            if not ok:
                queue.put("unsupported")
                return
            try:
                block = bytearray(512 * 1024 * 1024)
                block[0] = 1
                queue.put("allocated")
            except MemoryError:
                queue.put("MemoryError")

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        process = context.Process(target=child, args=(queue,))
        process.start()
        process.join(timeout=30)
        outcome = queue.get(timeout=5)
        if outcome == "unsupported":
            pytest.skip("RLIMIT_AS not settable here")
        assert outcome == "MemoryError"


# ---------------------------------------------------------------------------
# The shared worker and process reaping
# ---------------------------------------------------------------------------


def _echo_server():
    """A worker factory whose serve function doubles its request, hangs on
    "hang" and fires any planned ``test.worker`` fault keyed by the request."""

    def serve(request):
        if request == "hang":
            time.sleep(30)
        faults.inject("test.worker", key=str(request))
        return request * 2

    return serve


class TestWorker:
    def test_worker_round_trip_and_crash(self):
        plan = _plan(faults.FaultSpec(site="test.worker", kind="crash", match="die"))
        baseline = tuple(faults.live_children())
        with faults.inject_faults(plan):
            worker = faults.Worker(_echo_server)
        try:
            worker.send(21)
            assert worker.receive() == ("ok", 42)
            # The child is a marked worker, so the crash really SIGKILLs it,
            # and the closed pipe pins the death on this one request.
            worker.send("die")
            assert worker.receive() == ("crashed", None)
        finally:
            worker.kill()
        multiprocessing.active_children()
        assert [pid for pid in faults.live_children() if pid not in baseline] == []

    def test_worker_passes_the_attempt_to_the_child(self):
        plan = _plan(
            faults.FaultSpec(site="test.worker", kind="crash", match="flaky", attempts=1)
        )
        with faults.inject_faults(plan):
            first, second = faults.Worker(_echo_server), faults.Worker(_echo_server)
        try:
            first.send("flaky", attempt=1)
            assert first.receive() == ("crashed", None)
            second.send("flaky", attempt=2)
            assert second.receive() == ("ok", "flakyflaky")
        finally:
            first.kill()
            second.kill()

    def test_worker_timeout_then_kill_reaps(self):
        worker = faults.Worker(_echo_server)
        pid = worker.pid
        worker.send("hang")
        assert worker.receive(timeout=0.2) == ("timeout", None)
        worker.kill()
        assert pid not in faults.live_children()

    def test_worker_exits_when_the_parent_end_closes(self):
        # The child closes its inherited copy of the parent's end, so a
        # parent that goes away without a stop message still ends it.
        worker = faults.Worker(_echo_server)
        process = worker.process
        worker.conn.close()
        process.join(timeout=10)
        assert process.exitcode == 0

    def test_stop_ends_an_idle_worker_without_escalation(self):
        worker = faults.Worker(_echo_server)
        pid = worker.pid
        started = time.monotonic()
        worker.stop()
        # The child honoured the stop message; it was not left to the
        # grace period and the SIGTERM/SIGKILL escalation.
        assert time.monotonic() - started < procs.STOP_GRACE_SECONDS
        assert pid not in faults.live_children()


class TestBreakerAndProcs:
    """Process reaping and the orphan audit."""

    def test_reap_process_joins_and_escalates(self):
        def stubborn():
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60)

        context = multiprocessing.get_context("fork")
        process = context.Process(target=stubborn)
        process.start()
        time.sleep(0.2)  # let the child install its SIGTERM ignore
        escalated = faults.reap_process(process, grace=0.3)
        assert escalated  # SIGTERM ignored -> SIGKILL path taken
        assert process.exitcode is not None  # joined, not leaked

    def test_live_children_sees_forked_child(self):
        context = multiprocessing.get_context("fork")
        process = context.Process(target=time.sleep, args=(30,))
        process.start()
        try:
            assert process.pid in faults.live_children()
        finally:
            faults.reap_process(process, grace=0.2)
        multiprocessing.active_children()
        assert process.pid not in faults.live_children()


# ---------------------------------------------------------------------------
# Cache tmp sweep (satellite: orphaned tmp files)
# ---------------------------------------------------------------------------


def _dead_pid() -> int:
    """The pid of a child that has exited: a writer that died mid-put."""
    process = multiprocessing.get_context("fork").Process(target=lambda: None)
    process.start()
    process.join()
    return process.pid


def _swept(cache_dir: str) -> int:
    """``cache.tmp_swept`` of a session that opens ``cache_dir``."""
    return VerifySession(cache_dir=cache_dir).metrics.value("cache.tmp_swept")


class TestCacheSweep:
    def test_open_sweeps_dead_writer_tmp_files(self, tmp_path):
        cache_dir = str(tmp_path)
        stale = tmp_path / f"abc123.json.tmp.{_dead_pid()}.140001"
        stale.write_text("{}")
        # A live writer (this process) must be left alone.
        live = tmp_path / f"def456.json.tmp.{os.getpid()}.140002"
        live.write_text("{}")
        # A completed entry is not tmp-shaped and must survive.
        entry = tmp_path / "0123abc.json"
        entry.write_text("{}")

        assert _swept(cache_dir) == 1
        assert not stale.exists()
        assert live.exists()
        assert entry.exists()
        # Re-opening finds nothing left to sweep.
        assert _swept(cache_dir) == 0

    def test_sweep_lands_in_the_session_metrics(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / f"abc123.json.tmp.{_dead_pid()}.140001").write_text("{}")
        source = tmp_path / "inc.rs"
        source.write_text("fn inc(x: i32) -> i32 { x + 1 }\n")
        metrics = tmp_path / "metrics.prom"
        argv = ["--cache-dir", str(cache_dir), "--metrics-out", str(metrics), str(source)]
        assert cli_main(argv) == 0
        assert "repro_cache_tmp_swept_total 1" in metrics.read_text().splitlines()

    def test_injected_write_crash_leaves_sweepable_tmp(self, tmp_path, monkeypatch):
        # A cache.write crash fires between the tmp write and the rename;
        # the entry is lost but the *next* open repairs the directory.
        source = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc(x: i32) -> i32 { x + 1 }
"""
        plan = _plan(faults.FaultSpec(site="cache.write", kind="crash"))
        # os.replace must not run (the injected crash precedes it), and the
        # tmp file must survive the exception for the sweep to find...
        replaced = []
        real_replace = os.replace

        def spy_replace(src, dst):
            replaced.append(src)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy_replace)
        with faults.inject_faults(plan):
            from repro.service.api import VerifyJob, verify_job

            session = VerifySession(cache_dir=str(tmp_path), use_cache=True)
            with session.activate():
                report = verify_job(VerifyJob(source=source, name="t"), session)
        assert report.ok  # the verdict is unaffected by the lost write
        assert replaced == []
        tmp_files = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert tmp_files  # the orphan the sweep exists for
        # ...but this process is alive, so only a *later* open (here forged
        # by renaming to a dead pid) may remove it.
        dead_pid = _dead_pid()
        for tmp_file in tmp_files:
            stem, _, tail = tmp_file.name.partition(".tmp.")
            _pid, _, tid = tail.partition(".")
            tmp_file.rename(tmp_path / f"{stem}.tmp.{dead_pid}.{tid}")
        assert _swept(str(tmp_path)) == len(tmp_files)


# ---------------------------------------------------------------------------
# CLI interrupt exit code
# ---------------------------------------------------------------------------


class TestCliInterrupt:
    def test_sigint_exits_130(self, monkeypatch, capsys):
        from repro.service import cli

        def interrupted(argv):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", interrupted)
        assert cli.main(["whatever.rs"]) == 130
        assert "interrupted" in capsys.readouterr().err
