"""The three workloads, untraced for end-to-end metrics, traced per layer.

Every request is a closed loop: one client, the next request only after
the previous verdict.  An untraced run repeats requests for the given
number of seconds and reports their times at the reference speed of
:mod:`perfbench.speed`.  A traced run does a fixed amount of work three
times, which keeps its counts comparable: once untraced (the base of
``trace_overhead_ratio``), then twice under :class:`LayerTracer`; the two
traced passes must agree exactly on the work counts.  Traced figures are
raw seconds, so that layer self times add up to the traced wall time.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.daemon import client
from repro.daemon.testing import run_daemon
from repro.service import VerifyJob, VerifySession, verify_jobs

from perfbench import inputs
from perfbench.layers import SELF_LAYERS, LayerTracer, layer_figures
from perfbench.speed import ScaledClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per run, fresh interpreters (half a second each) or daemons
#: with their warm-up (about 3 s each); ``setup_s`` is their median.
SETUP_REPEATS = 5
DAEMON_SETUPS = 3
#: Job-status poll interval of the daemon client.
POLL_SECONDS = 0.01
#: Fewest requests an untraced run measures, however short ``--seconds``
#: (``table1`` always completes a pass over the nine programs).
MIN_CRATES = 3
MIN_EDITS = 20
#: Edits per traced ``edit-daemon`` pass.
TRACED_EDITS = 20


@dataclass
class Verdicts:
    """Every verdict against the input's known answer."""

    attempted: int = 0
    mismatched: int = 0
    errored: int = 0
    unknown: int = 0
    #: Failed checks other than verdicts: orphans, undrained daemon,
    #: daemon job failures, non-deterministic counts.
    flagged: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.mismatched + self.errored + self.unknown + self.flagged

    def flag(self, *problems: str) -> None:
        self.flagged += len(problems)
        self.problems.extend(problems)

    def check(
        self,
        label: str,
        functions: Sequence[Tuple[str, str]],
        expected: Dict[str, bool],
        error: Optional[str],
    ) -> None:
        self.attempted += len(expected)
        if error is not None:
            self.errored += len(expected)
            self.problems.append(f"{label}: job failed: {error}")
            return
        status = dict(functions)
        wrong = sorted(name for name, ok in expected.items() if (status.get(name) == "ok") != ok)
        if wrong:
            self.mismatched += len(wrong)
            self.problems.append(f"{label}: {len(wrong)} verdicts differ from the reference: {wrong[:3]}")

    def add_unknown(self, label: str, count: float) -> None:
        if count:
            self.unknown += int(count)
            self.problems.append(f"{label}: {int(count)} solver answers were unknown")


@dataclass
class Pass:
    """What one fixed-work pass measured."""

    #: Times every request; ``wall`` sums their raw times.
    clock: ScaledClock = field(default_factory=ScaledClock)
    counters: Dict[str, float] = field(default_factory=dict)
    #: (constraints, kvars, seconds) of every function verified afresh.
    fresh: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Per-request daemon timings, name -> samples (``edit-daemon`` only).
    daemon: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.clock.raw)

    def add_counters(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def exact_counts(self) -> Dict[str, float]:
        figures = layer_figures(self.counters)
        return {
            "core.checker.constraints": sum(item[0] for item in self.fresh),
            "core.checker.kvars": sum(item[1] for item in self.fresh),
            "fixpoint.smt_queries": self.counters.get("fixpoint.smt_queries", 0),
            "smt.search_calls": _calls(figures, "smt.search"),
        }


@dataclass
class Outcome:
    metrics: Dict[str, float]
    verdicts: Verdicts
    lines: List[str]


# -- statistics ------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The higher of p90 (nearest rank) and the highest percentile with at
    least ten samples beyond it, and the percentile.

    The floor at p90 keeps the figure a tail when a run holds few
    requests: ten crates or nine programs would otherwise give their
    fastest, and a count that differs by one between runs would swing
    the figure from the fastest request to the slowest.
    """
    ordered = sorted(values)
    count = len(ordered)
    index = max(math.ceil(0.9 * count) - 1, count - 11)
    return ordered[index], 100.0 * (index + 1) / count


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def request_metrics(times: Sequence[float], functions_per_request: float) -> Dict[str, float]:
    """Latency and throughput figures over per-request times to verdict."""
    return {
        "fn_per_s": functions_per_request * len(times) / sum(times),
        "request_p50_s": statistics.median(times),
        "request_geomean_s": geomean(times),
        "request_tail_s": tail(times)[0],
    }


def _seconds(label: str, values: Sequence[float]) -> str:
    return f"{label} (s): " + " ".join(f"{value:.3f}" for value in values)


def _counters(snapshot: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    return {
        name: float(entry["value"])
        for name, entry in snapshot.items()
        if entry.get("kind") == "counter"
    }


def _calls(figures: Dict[str, Dict[str, float]], layer: str) -> float:
    return sum(
        value
        for role in figures.values()
        for key, value in role.items()
        if key.startswith(f"{layer}.") and key.endswith(".calls")
    )


# -- processes -------------------------------------------------------------------


def _env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children", encoding="ascii") as handle:
                    children = [int(child) for child in handle.read().split()]
            except (OSError, ValueError):
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _end(pid: int) -> None:
    """SIGKILL a stray process and wait until it is gone."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        deadline = time.monotonic() + 10
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)


def orphan_audit(label: str) -> List[str]:
    """This process must have no live children left; strays are ended."""
    leftover = faults.live_children()
    for pid in leftover:
        _end(pid)
    return [f"{label}: {len(leftover)} child processes left running"] if leftover else []


def setup_times(workload: str, seed: int) -> ScaledClock:
    """Times of fresh-interpreter set-ups (imports, inputs, session)."""
    clock = ScaledClock()
    for _ in range(SETUP_REPEATS):
        clock.time(
            lambda: subprocess.run(
                [sys.executable, "-m", "perfbench.setup_probe", workload, str(seed)],
                cwd=ROOT,
                env=_env(),
                check=True,
                timeout=120,
                stdout=subprocess.DEVNULL,
            )
        )
    return clock


class DaemonProcess:
    """``python -m repro serve`` with one worker, as an editor would run it."""

    def __init__(self) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port), "--workers", "1"],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while not client.is_alive(self.url, timeout=1.0):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon at {self.url} did not start")
            time.sleep(0.01)

    def stop(self) -> List[str]:
        """Graceful SIGTERM shutdown; returns what went wrong, if anything."""
        problems = []
        workers = _descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if code != 0:
            problems.append(f"daemon exited with code {code}")
        for pid in workers:
            if _alive(pid):
                problems.append(f"daemon worker {pid} outlived the daemon")
                _end(pid)
        return problems


def _drained(url: str) -> List[str]:
    queue = client.healthz(url)["queue"]
    if queue["depth"] or queue["running"]:
        return [f"daemon not drained: {queue['depth']} queued, {queue['running']} running"]
    return []


def _daemon_counters(url: str) -> Dict[str, float]:
    """Counter totals from the daemon's Prometheus ``/metrics``."""
    values: Dict[str, float] = {}
    for line in client.metrics(url).splitlines():
        if line.startswith("repro_") and "{" not in line:
            name, _, value = line.rpartition(" ")
            if name.endswith("_total"):
                values[name[len("repro_"):-len("_total")]] = float(value)
    return values


def _daemon_failures(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    return {
        "unknown": delta("smt_result_unknown"),
        "retries": delta("faults_retries"),
        "failed": delta("daemon_jobs_failed") + delta("daemon_jobs_crashed") + delta("daemon_jobs_timeouts"),
    }


def _submit(url: str, source: str) -> Tuple[str, Dict[str, object]]:
    """One request: submit, poll until the verdict."""
    job_id = client.submit(url, source, name="crate")
    return job_id, client.wait(url, job_id, timeout=120, poll_interval=POLL_SECONDS)


def _start_warm(source: str) -> Tuple[DaemonProcess, Dict[str, object]]:
    """A started daemon that has verified ``source`` once, and that verdict."""
    daemon = DaemonProcess()
    try:
        return daemon, _submit(daemon.url, source)[1]
    except BaseException:
        daemon.stop()
        raise


def _check_record(verdicts: Verdicts, label: str, record: Dict[str, object], expected: Dict[str, bool]) -> None:
    report = record.get("report")
    if record.get("state") != "done" or not isinstance(report, dict):
        verdicts.check(label, [], expected, str(record.get("error", record.get("state"))))
        return
    functions = [(fn["name"], fn["status"]) for fn in report["functions"]]
    verdicts.check(label, functions, expected, report.get("error"))


# -- in-process requests ---------------------------------------------------------


def _verify_local(
    job: VerifyJob, expected: Dict[str, bool], jobs: int, verdicts: Verdicts, into: Pass
) -> float:
    """Verify one job in a fresh session; returns its scaled time to verdict.

    Garbage left by earlier requests is collected first, so that the
    collector does not spend it, at random, inside this request.
    """
    session = VerifySession(jobs=jobs)
    gc.collect()
    report = into.clock.time(lambda: verify_jobs([job], session))
    job_report = report.jobs[0]
    verdicts.check(
        job.name, [(fn.name, fn.status) for fn in job_report.functions], expected, job_report.error
    )
    counters = _counters(report.metrics)
    verdicts.add_unknown(job.name, counters.get("smt.result.unknown", 0))
    into.add_counters(counters)
    into.fresh.extend(
        (fn.num_constraints, fn.num_kvars, fn.time)
        for fn in job_report.functions
        if not fn.cached and fn.status != "trusted"
    )
    return into.clock.scaled[-1]


def _table1_expected(program) -> Dict[str, bool]:
    return {name: True for name in program.flux_functions}


# -- workloads: untraced -----------------------------------------------------------


def table1(seed: int, seconds: float) -> Outcome:
    programs = inputs.table1_programs(seed)
    verdicts = Verdicts()
    samples: Dict[str, List[float]] = {program.name: [] for program in programs}
    # Serial and in-process, with requests of up to 10 s: sample the
    # machine's speed inside them too.
    scratch = Pass(clock=ScaledClock(sample_inside=True))
    started = time.perf_counter()
    index = 0
    rss = 0.0
    while time.perf_counter() - started < seconds or not all(samples.values()):
        if index < len(programs):
            program = programs[index]
        else:
            # After the first pass, the programs with the fewest samples,
            # quickest first: a run holds one pass and a part, and this
            # gives the middle programs, which set request_p50_s, a
            # second sample.
            program = min(
                programs,
                key=lambda candidate: (
                    len(samples[candidate.name]),
                    statistics.median(samples[candidate.name]),
                ),
            )
        index += 1
        samples[program.name].append(
            _verify_local(inputs.table1_job(program), _table1_expected(program), 1, verdicts, scratch)
        )
        if index == len(programs):
            rss = peak_rss_mb()
    verdicts.flag(*orphan_audit("table1"))
    setups = setup_times("table1", seed)
    per_program = {name: statistics.median(times) for name, times in samples.items()}
    functions = sum(len(program.flux_functions) for program in programs)
    suite = sum(per_program.values())
    metrics = request_metrics(list(per_program.values()), functions / len(programs))
    metrics.update(setup_s=statistics.median(setups.scaled), peak_rss_mb=rss)
    lines = [f"{'program':10s} {'median_s':>9s} {'samples':>7s} {'functions':>9s}"]
    lines += [
        f"{program.name:10s} {per_program[program.name]:9.3f} "
        f"{len(samples[program.name]):7d} {len(program.flux_functions):9d}"
        for program in programs
    ]
    lines += [
        f"suite_s = {suite:.3f} s (sum of per-program medians)",
        f"program_geomean_s = {metrics['request_geomean_s']:.4f} s",
        f"request_tail_s is the slowest program's median ({len(per_program)} programs)",
        _seconds("raw request times", scratch.clock.raw),
        _seconds("raw set-ups", setups.raw),
    ]
    return Outcome(metrics, verdicts, lines)


def crate_cold(seed: int, seconds: float) -> Outcome:
    functions = inputs.stress_crate(seed)
    job = VerifyJob(source=inputs.crate_source(functions), name="crate")
    expected = inputs.crate_verdicts(functions)
    verdicts = Verdicts()
    times: List[float] = []
    # Inside samples would pause only this process, not pool workers.
    scratch = Pass(clock=ScaledClock(sample_inside=inputs.CRATE_JOBS == 1))
    started = time.perf_counter()
    rss = 0.0
    while time.perf_counter() - started < seconds or len(times) < MIN_CRATES:
        times.append(_verify_local(job, expected, inputs.CRATE_JOBS, verdicts, scratch))
        if len(times) == 1:
            rss = peak_rss_mb()
    verdicts.flag(*orphan_audit("crate-cold"))
    setups = setup_times("crate-cold", seed)
    metrics = request_metrics(times, len(functions))
    metrics.update(setup_s=statistics.median(setups.scaled), peak_rss_mb=rss)
    lines = [
        f"crate: {len(functions)} functions, {len(job.source)} bytes, "
        f"{sum(not ok for ok in expected.values())} expected failures, jobs={inputs.CRATE_JOBS}",
        _seconds("cold crate times", times),
        f"request_tail_s: p{tail(times)[1]:.0f} of {len(times)} crates",
        _seconds("raw cold crate times", scratch.clock.raw),
        _seconds("raw set-ups", setups.raw),
    ]
    return Outcome(metrics, verdicts, lines)


def edit_daemon(seed: int, seconds: float) -> Outcome:
    functions = inputs.stress_crate(seed)
    base = inputs.crate_source(functions)
    expected = inputs.crate_verdicts(functions)
    verdicts = Verdicts()
    setups = ScaledClock()
    daemon: Optional[DaemonProcess] = None
    try:
        for attempt in range(DAEMON_SETUPS):
            if daemon is not None:
                verdicts.flag(*daemon.stop())
                daemon = None
            daemon, record = setups.time(lambda: _start_warm(base))
            _check_record(verdicts, f"warm-up {attempt + 1}", record, expected)
            before = _daemon_counters(daemon.url)
        edits = inputs.EditSequence(functions, seed)
        clock = ScaledClock()
        job_ids = set()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or len(clock.scaled) < MIN_EDITS:
            edit = edits.next()
            job_id, record = clock.time(lambda: _submit(daemon.url, edit.source))
            job_ids.add(job_id)
            _check_record(verdicts, f"edit {edits.count} ({edit.kind} {edit.function})", record, expected)
        latencies = clock.scaled
        if len(job_ids) != len(latencies):
            verdicts.flag("daemon dedup answered an edit: submitted sources repeat")
        failures = _daemon_failures(before, _daemon_counters(daemon.url))
        verdicts.add_unknown("edits", failures["unknown"])
        if failures["failed"] or failures["retries"]:
            verdicts.flag(f"daemon job failures/retries: {failures}")
        verdicts.flag(*_drained(daemon.url))
    finally:
        if daemon is not None:
            verdicts.flag(*daemon.stop())
    verdicts.flag(*orphan_audit("edit-daemon"))
    metrics = request_metrics(latencies, len(functions))
    metrics.update(setup_s=statistics.median(setups.scaled), peak_rss_mb=peak_rss_mb())
    value, percentile = tail(latencies)
    lines = [
        f"crate: {len(functions)} functions; {len(latencies)} edits, every "
        f"{inputs.SPEC_EDIT_EVERY}th a spec edit",
        f"edit_p50_s = {metrics['request_p50_s']:.4f} s",
        f"edit_tail_s = {value:.4f} s (p{percentile:.0f} of {len(latencies)} edits)",
        _seconds("set-ups", setups.scaled),
        _seconds("edit latencies", latencies),
        _seconds("raw set-ups", setups.raw),
        _seconds("raw edit latencies", clock.raw),
    ]
    return Outcome(metrics, verdicts, lines)


# -- workloads: traced -------------------------------------------------------------


def _table1_pass(seed: int, verdicts: Verdicts) -> Pass:
    result = Pass()
    for program in inputs.table1_programs(seed):
        _verify_local(inputs.table1_job(program), _table1_expected(program), 1, verdicts, result)
    return result


def _crate_pass(seed: int, verdicts: Verdicts) -> Pass:
    functions = inputs.stress_crate(seed)
    result = Pass()
    job = VerifyJob(source=inputs.crate_source(functions), name="crate")
    _verify_local(job, inputs.crate_verdicts(functions), inputs.CRATE_JOBS, verdicts, result)
    return result


def _edit_pass(seed: int, verdicts: Verdicts) -> Pass:
    """Warm an in-process daemon, then time ``TRACED_EDITS`` edits.

    In-process, the daemon's worker is forked from this process and so
    inherits whatever wrappers are installed at the time.
    """
    functions = inputs.stress_crate(seed)
    expected = inputs.crate_verdicts(functions)
    result = Pass(daemon={name: [] for name in ("queue_wait", "worker", "ipc", "client", "report_bytes")})
    with run_daemon(workers=1) as handle:
        _, record = _submit(handle.url, inputs.crate_source(functions))
        _check_record(verdicts, "warm-up", record, expected)
        workers = handle.daemon.workers
        before_metrics = _daemon_counters(handle.url)
        before = _counters(workers.merged_metrics())
        edits = inputs.EditSequence(functions, seed)
        for _ in range(TRACED_EDITS):
            edit = edits.next()
            _, record = result.clock.time(lambda: _submit(handle.url, edit.source))
            latency = result.clock.raw[-1]
            _check_record(verdicts, f"edit {edits.count}", record, expected)
            report = record["report"]
            server = record["finished"] - record["submitted"]
            worker = record["finished"] - record["started"]
            result.daemon["queue_wait"].append(record["started"] - record["submitted"])
            result.daemon["worker"].append(worker)
            result.daemon["ipc"].append(worker - report["time"])
            result.daemon["client"].append(latency - server)
            result.daemon["report_bytes"].append(len(json.dumps(record)))
            result.fresh.extend(
                (fn["num_constraints"], fn["num_kvars"], fn["time"])
                for fn in report["functions"]
                if not fn["cached"] and fn["status"] != "trusted"
            )
        after = _counters(workers.merged_metrics())
        result.counters = {name: value - before.get(name, 0) for name, value in after.items()}
        failures = _daemon_failures(before_metrics, _daemon_counters(handle.url))
        verdicts.add_unknown("edits", failures["unknown"])
        result.counters["daemon.retries"] = failures["retries"]
        result.counters["daemon.failed"] = failures["failed"]
        verdicts.flag(*_drained(handle.url))
    return result


def layer_metrics(traced: Pass, untraced: Pass, jobs: int, role: str) -> Dict[str, float]:
    """The per-layer metrics of a traced pass.

    ``role`` names the process whose layers lie on the path from request
    to verdict: ``main`` when the benchmark verifies in-process (parallel
    workers then show up as scheduler self time, the wait for them), and
    ``worker`` when the daemon's worker does the verifying.
    """
    figures = layer_figures(traced.counters)

    def both(key: str) -> float:
        return sum(role_figures.get(key, 0.0) for role_figures in figures.values())

    counters = traced.counters
    parse_s = both("lang.parse.self_s")
    search_s = both("smt.search.self_s")
    sat_s, theory_s = both("smt.sat_s"), both("smt.theory_s")
    check_sat = both("smt.check_sat.calls")
    one_shot = both("smt.encode.solve_formula.calls")
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    scheduler_wall = both("service.scheduler.total_s")
    fn_busy = sum(item[2] for item in traced.fresh)
    daemon = traced.daemon
    on_path = sum(figures[role].get(f"{layer}.self_s", 0.0) for layer in SELF_LAYERS)
    on_path += sum(sum(daemon.get(name, ())) for name in ("queue_wait", "ipc", "client"))

    def median_of(name: str) -> float:
        return statistics.median(daemon[name]) if daemon.get(name) else 0.0

    return {
        "lang.parse_s": parse_s,
        "lang.bytes_per_s": both("lang.bytes") / parse_s if parse_s else 0.0,
        "core.genv.register_s": both("core.genv.register.self_s"),
        "core.genv.deps_s": both("core.genv.deps.self_s"),
        "mir.s": both("mir.self_s"),
        "mir.calls": _calls(figures, "mir"),
        "core.checker.s": both("core.checker.self_s"),
        "core.checker.constraints": sum(item[0] for item in traced.fresh),
        "core.checker.kvars": sum(item[1] for item in traced.fresh),
        "fixpoint.self_s": both("fixpoint.self_s"),
        "fixpoint.solves": _calls(figures, "fixpoint"),
        "fixpoint.smt_queries": counters.get("fixpoint.smt_queries", 0),
        "smt.encode_s": both("smt.encode.self_s"),
        "smt.encode_calls": _calls(figures, "smt.encode"),
        "smt.search_s": search_s,
        "smt.search_calls": _calls(figures, "smt.search"),
        "smt.sat_s": sat_s,
        "smt.theory_s": theory_s,
        "smt.search_other_s": search_s - sat_s - theory_s,
        "smt.conflicts": both("smt.conflicts"),
        "smt.theory_propagations": both("smt.theory_propagations"),
        "smt.core_shrink_rounds": both("smt.core_shrink_rounds"),
        "smt.unknown": both("smt.unknown"),
        "smt.answer_cache_hit_ratio": (check_sat - one_shot) / check_sat if check_sat else 0.0,
        "service.cache.key_s": both("service.cache.key.self_s"),
        "service.cache.get_s": both("service.cache.get.self_s"),
        "service.cache.put_s": both("service.cache.put.self_s"),
        "service.cache.puts": _calls(figures, "service.cache.put"),
        "service.cache.hit_ratio": counters.get("cache.hits", 0) / lookups if lookups else 0.0,
        "service.scheduler.wall_s": scheduler_wall,
        "service.scheduler.self_s": both("service.scheduler.self_s"),
        "service.scheduler.fn_busy_s": fn_busy,
        "service.scheduler.utilization": fn_busy / (jobs * scheduler_wall) if scheduler_wall else 0.0,
        "service.scheduler.retries": counters.get("faults.retries", 0) + counters.get("faults.pool_rebuilds", 0),
        "daemon.queue_wait_s": median_of("queue_wait"),
        "daemon.worker_s": median_of("worker"),
        "daemon.ipc_s": median_of("ipc"),
        "daemon.client_s": median_of("client"),
        "daemon.report_bytes": median_of("report_bytes"),
        "daemon.retries": counters.get("daemon.retries", 0),
        "daemon.failed": counters.get("daemon.failed", 0),
        "traced_wall_s": traced.wall,
        "unattributed_s": traced.wall - on_path,
        # Scaled times, so that a change in machine speed between the
        # passes does not pass for tracing overhead.
        "trace_overhead_ratio": sum(traced.clock.scaled) / sum(untraced.clock.scaled),
    }


#: workload -> (fixed-work pass, scheduler jobs, role on the request path,
#: exact counts the two traced passes must agree on)
_TRACED: Dict[str, Tuple[Callable[[int, Verdicts], Pass], int, str, Tuple[str, ...]]] = {
    "table1": (
        _table1_pass,
        1,
        "main",
        ("core.checker.constraints", "core.checker.kvars", "fixpoint.smt_queries", "smt.search_calls"),
    ),
    # Per-worker answer caches make raw solve counts depend on the schedule.
    "crate-cold": (
        _crate_pass,
        inputs.CRATE_JOBS,
        "main",
        ("core.checker.constraints", "core.checker.kvars", "fixpoint.smt_queries"),
    ),
    "edit-daemon": (
        _edit_pass,
        1,
        "worker",
        ("core.checker.constraints", "core.checker.kvars", "fixpoint.smt_queries"),
    ),
}


def traced(workload: str, seed: int, tracer: LayerTracer) -> Outcome:
    run_pass, jobs, role, gated = _TRACED[workload]
    verdicts = Verdicts()
    untraced = run_pass(seed, verdicts)
    verdicts.flag(*orphan_audit(f"{workload} untraced pass"))
    tracer.install()
    try:
        first = run_pass(seed, verdicts)
        verdicts.flag(*orphan_audit(f"{workload} traced pass 1"))
        second = run_pass(seed, verdicts)
        verdicts.flag(*orphan_audit(f"{workload} traced pass 2"))
    finally:
        tracer.uninstall()
    counts = [first.exact_counts(), second.exact_counts(), untraced.exact_counts()]
    for name in gated:
        if counts[0][name] != counts[1][name]:
            verdicts.flag(
                f"determinism: {name} differs between traced passes ({counts[0][name]} vs {counts[1][name]})"
            )
        if name != "smt.search_calls" and counts[0][name] != counts[2][name]:
            verdicts.flag(
                f"determinism: {name} differs untraced vs traced ({counts[2][name]} vs {counts[0][name]})"
            )
    metrics = layer_metrics(first, untraced, jobs, role)
    share = metrics["unattributed_s"] / metrics["traced_wall_s"]
    lines = [
        f"traced wall {first.wall:.3f} s, untraced {untraced.wall:.3f} s, "
        f"second traced {second.wall:.3f} s",
        f"unattributed {metrics['unattributed_s']:.4f} s = {100 * share:.2f}% of traced wall",
        "exact counts (traced pass 1): "
        + ", ".join(f"{name}={counts[0][name]:g}" for name in gated),
    ]
    return Outcome(metrics, verdicts, lines)


UNTRACED: Dict[str, Callable[[int, float], Outcome]] = {
    "table1": table1,
    "crate-cold": crate_cold,
    "edit-daemon": edit_daemon,
}
