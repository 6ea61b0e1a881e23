"""The verification daemon: protocol, queue/quota edge cases, HTTP surface,
graceful drain, worker-subprocess isolation, and the CLI thin-client
fallback."""

import asyncio
import dataclasses
import json
import socket
import threading
import time
import urllib.request
import zlib

import pytest

from repro import faults
from repro.daemon import client
from repro.daemon.protocol import (
    DEFAULT_TENANT,
    JobRecord,
    JobRequest,
    ProtocolError,
    error_payload,
)
from repro.daemon.queue import JobQueue
from repro.daemon.quotas import QuotaExceeded, TenantQuotas
from repro.daemon.testing import run_daemon
from repro.daemon.workers import WorkerPool
from repro.service.cli import build_serve_parser, main as cli_main

INC = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc(x: i32) -> i32 { x + 1 }
"""

BAD = """
#[flux::sig(fn(i32[@x]) -> i32[x])]
fn bad(x: i32) -> i32 { x + 1 }
"""

FILL = """
#[flux::sig(fn(usize[@n]) -> usize[n])]
fn fill_len(n: usize) -> usize {
    let mut v = RVec::new();
    let mut i = 0;
    while i < n {
        v.push(i);
        i += 1;
    }
    v.len()
}
"""


# ---------------------------------------------------------------------------
# Protocol units
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_roundtrip(self):
        request = JobRequest.from_dict(
            {"source": INC, "name": "n", "extra_sources": ["lib"], "only": ["inc"]}
        )
        assert request.tenant == DEFAULT_TENANT
        again = JobRequest.from_dict(request.to_dict())
        assert again == request

    def test_record_json_splices_the_report_text_in_to_dict_order(self):
        request = JobRequest(source=INC, name="n")
        report = {"name": "n", "ok": False, "functions": [{"name": "f", "time": 0.5}]}
        packed = zlib.compress(json.dumps(report).encode("utf-8"))
        error = error_payload("TIMEOUT", "slow", job="job-1")["error"]
        meta = {"attempts": 1, "worker_pid": 42}
        timed = {"submitted": 1.25, "started": 2.0, "finished": 3.5, "meta": meta}
        records = [
            JobRecord(id="job-1", request=request),
            JobRecord(id="job-1", request=request, state="running", started=2.0, meta=meta),
            JobRecord(id="job-1", request=request, state="done", report_zlib=packed, **timed),
            JobRecord(id="job-1", request=request, state="failed", error=error, **timed),
            # Both at once never happens today; the splice keeps the order anyway.
            JobRecord(id="job-1", request=request, report_zlib=packed, error=error),
        ]
        for record in records:
            assert record.to_json() == json.dumps(record.to_dict())
        assert records[2].report == report

    def test_validation_errors(self):
        with pytest.raises(ProtocolError):
            JobRequest.from_dict([])
        with pytest.raises(ProtocolError):
            JobRequest.from_dict({})
        with pytest.raises(ProtocolError):
            JobRequest.from_dict({"source": ""})
        with pytest.raises(ProtocolError):
            JobRequest.from_dict({"source": INC, "only": "inc"})
        with pytest.raises(ProtocolError):
            JobRequest.from_dict({"source": INC, "bogus": 1})

    def test_content_key_identity(self):
        a = JobRequest(source=INC, name="a")
        assert a.content_key() == JobRequest(source=INC, name="a").content_key()
        # Any content-bearing field participates in the key.
        assert a.content_key() != JobRequest(source=BAD, name="a").content_key()
        assert a.content_key() != JobRequest(source=INC, name="b").content_key()
        assert a.content_key() != JobRequest(source=INC, name="a", tenant="t").content_key()
        assert (
            a.content_key()
            != JobRequest(source=INC, name="a", only=("inc",)).content_key()
        )

    def test_error_payload_shape(self):
        payload = error_payload("TIMEOUT", "too slow", job="job-1")
        assert payload == {
            "error": {"kind": "TIMEOUT", "message": "too slow", "detail": {"job": "job-1"}}
        }


class TestServeOptions:
    def test_workers_below_one_is_a_usage_error(self, capsys):
        # A daemon without workers would admit jobs and never run them.
        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(["--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert build_serve_parser().parse_args(["--workers", "2"]).workers == 2


class TestQuotas:
    def test_limits_and_release(self):
        quotas = TenantQuotas(default_limit=2, limits={"big": 0})
        quotas.acquire("a")
        quotas.acquire("a")
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.acquire("a")
        assert excinfo.value.tenant == "a"
        assert excinfo.value.limit == 2
        quotas.release("a")
        quotas.acquire("a")  # slot freed
        for _ in range(10):  # limit 0 means unlimited
            quotas.acquire("big")
        assert quotas.snapshot() == {"a": 2, "big": 10}


# ---------------------------------------------------------------------------
# Queue/worker-pool units (driven directly on an asyncio loop)
# ---------------------------------------------------------------------------


def _fresh_pool() -> WorkerPool:
    return WorkerPool({"cache_dir": None, "session_jobs": 1}, size=1)


def _plan(*specs: faults.FaultSpec) -> faults.FaultPlan:
    return faults.FaultPlan(seed=0, specs=specs)


class TestQueueWorkers:
    def test_timeout_kills_and_replaces_worker(self):
        # A job hung past its budget fails with TIMEOUT and its worker is
        # killed — no orphan thread, no poisoned session — while the pool
        # stays warm for the next job, which verifies untouched.
        plan = _plan(
            faults.FaultSpec(site="daemon.job", kind="hang", match="slow", delay=30.0)
        )

        async def scenario():
            pool = _fresh_pool()
            queue = JobQueue(pool, workers=1, job_timeout=0.3)
            queue.start()
            slow, _ = queue.submit(JobRequest(source=INC, name="slow"))
            while slow.active:
                await asyncio.sleep(0.01)
            assert slow.state == "failed"
            assert slow.error["kind"] == "TIMEOUT"
            assert (slow.request.source, slow.request.extra_sources) == ("", ())
            assert pool.retired_total == 1
            assert pool.warm == 1
            fast, _ = queue.submit(JobRequest(source=INC, name="fast"))
            while fast.active:
                await asyncio.sleep(0.01)
            assert fast.state == "done"
            assert fast.report["ok"] is True
            await queue.stop()
            assert pool.warm == 0

        with faults.inject_faults(plan):
            asyncio.run(scenario())

    def test_crashed_job_retried_on_fresh_worker(self):
        # ``attempts=1`` fires the crash only on the first attempt of the
        # job: the worker SIGKILLs itself, the queue retires it and re-runs
        # the job on the replacement, which succeeds.
        plan = _plan(
            faults.FaultSpec(site="daemon.job", kind="crash", match="flaky", attempts=1)
        )

        async def scenario():
            pool = _fresh_pool()
            queue = JobQueue(pool, workers=1, job_timeout=None)
            queue.start()
            record, _ = queue.submit(JobRequest(source=INC, name="flaky"))
            while record.active:
                await asyncio.sleep(0.01)
            assert record.state == "done"
            assert record.report["ok"] is True
            assert record.meta["attempts"] == 2
            assert pool.retired_total == 1
            await queue.stop()

        with faults.inject_faults(plan):
            asyncio.run(scenario())

    def test_persistent_crash_exhausts_retries(self):
        plan = _plan(
            faults.FaultSpec(site="daemon.job", kind="crash", match="doomed")
        )

        async def scenario():
            pool = _fresh_pool()
            queue = JobQueue(pool, workers=1, job_timeout=None, job_retries=1)
            queue.start()
            record, _ = queue.submit(JobRequest(source=INC, name="doomed"))
            while record.active:
                await asyncio.sleep(0.01)
            assert record.state == "failed"
            assert record.error["kind"] == "WORKER_CRASHED"
            assert record.meta["attempts"] == 2  # first run + one retry
            assert pool.retired_total == 2
            await queue.stop()

        with faults.inject_faults(plan):
            asyncio.run(scenario())

    def test_stop_abandons_pending_backlog(self):
        plan = _plan(
            faults.FaultSpec(site="daemon.job", kind="hang", match="inflight", delay=0.5)
        )

        async def scenario():
            pool = _fresh_pool()
            queue = JobQueue(pool, workers=1, job_timeout=None)
            queue.start()
            first, _ = queue.submit(JobRequest(source=INC, name="inflight"))
            second, _ = queue.submit(JobRequest(source=INC, name="backlog"))
            while first.state != "running":
                await asyncio.sleep(0.01)
            assert second.state == "queued"
            stopper = asyncio.ensure_future(queue.stop())
            await asyncio.sleep(0.05)
            # The backlog is failed immediately — shutdown does not run it.
            assert second.state == "failed"
            assert second.error["kind"] == "SHUTTING_DOWN"
            assert second.request.source == ""
            assert first.request.source == INC  # still running: sources kept
            assert not stopper.done()  # bounded by the one in-flight job
            await asyncio.wait_for(stopper, timeout=10.0)
            assert first.state == "done"
            assert first.request.source == ""
            assert queue.quotas.snapshot() == {}  # every slot released

        with faults.inject_faults(plan):
            asyncio.run(scenario())


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------


class TestDaemonEndToEnd:
    def test_verify_ok_and_failing(self):
        with run_daemon() as daemon:
            ok = client.verify(daemon.url, INC, name="good")
            assert ok["state"] == "done"
            assert ok["report"]["ok"] is True
            assert [fn["status"] for fn in ok["report"]["functions"]] == ["ok"]

            bad = client.verify(daemon.url, BAD, name="bad")
            assert bad["state"] == "done"  # verification *ran*; verdict is False
            assert bad["report"]["ok"] is False
            assert bad["report"]["functions"][0]["diagnostics"]

    def test_finished_record_keeps_report_as_json_text(self):
        with run_daemon() as daemon:
            job_id = client.submit(daemon.url, BAD, name="kept")
            client.wait(daemon.url, job_id)
            with urllib.request.urlopen(f"{daemon.url}/jobs/{job_id}", timeout=10) as response:
                body = response.read()
            record = daemon.daemon.queue.get(job_id)
        # The record holds compressed text, and GET /jobs/<id> is
        # byte-for-byte the body that encoding the decoded record gives,
        # key order included.
        assert isinstance(record.report_zlib, bytes)
        assert len(record.report_zlib) < len(record.report_json)
        assert zlib.decompress(record.report_zlib).decode("utf-8") == record.report_json
        assert body == json.dumps(record.to_dict()).encode("utf-8")
        assert json.loads(body)["report"] == record.report
        assert record.report["functions"][0]["diagnostics"]

    def test_finished_record_drops_its_sources(self):
        # A finished job's record keeps only what is read after the job: the
        # name, the tenant and the content key.  The body GET /jobs/<id>
        # serves is the one the record gave with its sources, and the same
        # content still deduplicates onto it.
        with run_daemon() as daemon:
            job_id = client.submit(daemon.url, BAD, name="big", extra_sources=[INC])
            client.wait(daemon.url, job_id)
            with urllib.request.urlopen(f"{daemon.url}/jobs/{job_id}", timeout=10) as response:
                body = response.read()
            record = daemon.daemon.queue.get(job_id)
            assert record.state == "done"
            assert (record.request.source, record.request.extra_sources) == ("", ())
            with_sources = dataclasses.replace(
                record, request=JobRequest(source=BAD, name="big", extra_sources=(INC,))
            )
            assert body == with_sources.to_json().encode("utf-8")
            assert client.submit(daemon.url, BAD, name="big", extra_sources=[INC]) == job_id
            assert client.status(daemon.url, job_id)["duplicates"] == 1

    def test_duplicate_submission_returns_same_job_id(self):
        with run_daemon() as daemon:
            first = client.submit(daemon.url, INC, name="dup")
            record = client.wait(daemon.url, first)
            assert record["state"] == "done"
            # Resubmitting identical content — even after completion —
            # attaches to the original job instead of re-verifying.
            second = client.submit(daemon.url, INC, name="dup")
            assert second == first
            assert client.status(daemon.url, first)["duplicates"] == 1
            # Different name (or tenant, or sources) is a different job.
            third = client.submit(daemon.url, INC, name="dup2")
            assert third != first

    def test_quota_exceeded_is_structured_429(self):
        with run_daemon(workers=0, tenant_quota=1, drain_timeout=0.2) as daemon:
            client.submit(daemon.url, INC, name="first", tenant="acme")
            with pytest.raises(client.DaemonError) as excinfo:
                client.submit(daemon.url, BAD, name="second", tenant="acme")
            assert excinfo.value.http_status == 429
            assert excinfo.value.kind == "QUOTA_EXCEEDED"
            assert excinfo.value.detail["tenant"] == "acme"
            assert excinfo.value.detail["limit"] == 1
            # Another tenant still has its own quota.
            other = client.submit(daemon.url, BAD, name="second", tenant="other")
            assert other

    def test_queue_full_is_structured_503(self):
        with run_daemon(
            workers=0, queue_limit=1, tenant_quota=0, drain_timeout=0.2
        ) as daemon:
            client.submit(daemon.url, INC, name="first")
            with pytest.raises(client.DaemonError) as excinfo:
                client.submit(daemon.url, BAD, name="second")
            assert excinfo.value.http_status == 503
            assert excinfo.value.kind == "QUEUE_FULL"

    def test_job_timeout_is_structured_failure(self):
        with run_daemon(job_timeout=1e-6, drain_timeout=5.0) as daemon:
            job_id = client.submit(daemon.url, FILL, name="slow")
            record = client.wait(daemon.url, job_id)
            assert record["state"] == "failed"
            assert record["error"]["kind"] == "TIMEOUT"
            assert "report" not in record

    def test_failed_job_resubmission_readmits(self):
        with run_daemon(job_timeout=1e-6, drain_timeout=10.0) as daemon:
            first = client.submit(daemon.url, FILL, name="flaky")
            record = client.wait(daemon.url, first)
            assert record["state"] == "failed"
            # A failed record must not pin identical resubmissions to the
            # stale failure: lift the timeout and resubmit — a *new* job.
            daemon.daemon.queue.job_timeout = None
            second = client.submit(daemon.url, FILL, name="flaky")
            assert second != first
            done = client.wait(daemon.url, second)
            assert done["state"] == "done"
            assert done["report"]["ok"] is True
            # The old record stays readable until evicted.
            assert client.status(daemon.url, first)["state"] == "failed"
            # The timed-out job's worker was killed; the pool stays warm.
            health = client.healthz(daemon.url)
            assert health["workers"]["retired"] == 1
            assert health["workers"]["warm"] == 1
            exposition = client.metrics(daemon.url)
            assert "repro_daemon_sessions_retired_total 1" in exposition
            assert "repro_daemon_jobs_retried_total 1" in exposition

    def test_job_status_reports_attempts_and_worker_pid(self):
        # The worker dies on the job's first attempt; GET /jobs/<id> then
        # shows the re-run and the replacement worker that produced the
        # outcome (the daemon runs in this process, so its workers are
        # this process's children).
        plan = _plan(
            faults.FaultSpec(site="daemon.job", kind="crash", match="flaky", attempts=1)
        )
        with faults.inject_faults(plan), run_daemon() as daemon:
            before = set(faults.live_children())
            record = client.wait(daemon.url, client.submit(daemon.url, INC, name="flaky"))
            after = set(faults.live_children())
        assert record["state"] == "done"
        assert record["attempts"] == 2
        assert [record["worker_pid"]] == sorted(after - before)

    def test_session_jobs_fork_workers_inside_a_daemon_worker(self):
        # --session-jobs 2: each job's scheduler forks workers of its own
        # from inside the daemon's worker process, and reaps them.
        two = INC + INC.replace("fn inc", "fn inc2")
        baseline = set(faults.live_children())
        with run_daemon(session_jobs=2) as daemon:
            record = client.verify(daemon.url, two, name="two")
        assert record["state"] == "done"
        assert [fn["status"] for fn in record["report"]["functions"]] == ["ok", "ok"]
        assert set(faults.live_children()) <= baseline

    def test_worker_pool_has_one_session_each(self):
        with run_daemon(workers=2) as daemon:
            health = client.healthz(daemon.url)
            assert health["queue"]["workers"] == 2
            assert health["workers"]["warm"] == 2
            a = client.submit(daemon.url, INC, name="a")
            b = client.submit(daemon.url, BAD, name="b")
            assert client.wait(daemon.url, a)["report"]["ok"] is True
            assert client.wait(daemon.url, b)["report"]["ok"] is False

    def test_unknown_job_is_404(self):
        with run_daemon() as daemon:
            with pytest.raises(client.DaemonError) as excinfo:
                client.status(daemon.url, "job-999999-cafebabe")
            assert excinfo.value.http_status == 404
            assert excinfo.value.kind == "NOT_FOUND"

    def test_bad_request_is_400(self):
        with run_daemon() as daemon:
            with pytest.raises(client.DaemonError) as excinfo:
                client._request(daemon.url, "/verify", payload={"name": "no-source"})
            assert excinfo.value.http_status == 400
            assert excinfo.value.kind == "BAD_REQUEST"
            with pytest.raises(client.DaemonError) as excinfo:
                client._request(daemon.url, "/nope", payload=None)
            assert excinfo.value.http_status == 404

    def test_draining_daemon_refuses_new_work(self):
        with run_daemon() as daemon:
            daemon.daemon.queue.stop_accepting()
            with pytest.raises(client.DaemonError) as excinfo:
                client.submit(daemon.url, INC, name="late")
            assert excinfo.value.http_status == 503
            assert excinfo.value.kind == "SHUTTING_DOWN"

    def test_healthz_and_metrics(self):
        with run_daemon() as daemon:
            health = client.healthz(daemon.url)
            assert health["ok"] is True
            assert health["state"] == "serving"
            assert health["queue"]["workers"] == 1

            client.verify(daemon.url, INC, name="warm")
            exposition = client.metrics(daemon.url)
            assert "repro_daemon_jobs_submitted_total 1" in exposition
            assert "repro_daemon_sessions_warm 1" in exposition
            assert "repro_daemon_queue_depth" in exposition
            assert "repro_daemon_cache_hit_ratio" in exposition
            # Solver counters from the warm session ride the same registry.
            assert "repro_smt_queries_" in exposition

    def test_shutdown_drains_in_flight_jobs(self):
        with run_daemon() as daemon:
            job_id = client.submit(daemon.url, FILL, name="inflight")
            handle = daemon
        # The context manager exit above performed the graceful shutdown;
        # the submitted job must have been drained to completion, not lost.
        record = handle.daemon.queue.get(job_id)
        assert record is not None
        assert record.state == "done"
        assert record.report is not None and record.report["ok"] is True
        assert handle.daemon.state == "stopped"

    def test_warm_session_serves_repeat_from_cache(self):
        with run_daemon() as daemon:
            first = client.verify(daemon.url, INC, name="one")
            assert first["report"]["cache_misses"] == 1
            # Same program under a different job name: re-verified through
            # the warm session, served by the function-result cache.
            second = client.verify(daemon.url, INC, name="two")
            assert second["report"]["cache_hits"] == 1
            assert second["report"]["cache_misses"] == 0


# ---------------------------------------------------------------------------
# Client error classification
# ---------------------------------------------------------------------------


class TestClientErrors:
    def test_slow_daemon_is_timeout_not_unavailable(self):
        # A socket that accepts the connection but never answers models a
        # busy-but-alive daemon: the client must raise a retryable TIMEOUT,
        # not DaemonUnavailable (which would trigger the in-process
        # fallback and duplicate work already running server-side).
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def accept_and_hang():
            try:
                conn, _ = server.accept()
                time.sleep(2.0)
                conn.close()
            except OSError:
                pass

        thread = threading.Thread(target=accept_and_hang, daemon=True)
        thread.start()
        try:
            with pytest.raises(client.DaemonError) as excinfo:
                client.healthz(f"http://127.0.0.1:{port}", timeout=0.2)
            assert not isinstance(excinfo.value, client.DaemonUnavailable)
            assert excinfo.value.kind == "TIMEOUT"
        finally:
            server.close()

    def test_refused_connection_is_unavailable(self):
        with pytest.raises(client.DaemonUnavailable):
            client.healthz("http://127.0.0.1:1", timeout=0.5)


# ---------------------------------------------------------------------------
# CLI thin client
# ---------------------------------------------------------------------------


class TestCliClient:
    def test_cli_uses_server_when_available(self, tmp_path, capsys):
        source_path = tmp_path / "inc.rs"
        source_path.write_text(INC)
        with run_daemon() as daemon:
            status = cli_main(["--server", daemon.url, str(source_path)])
            assert status == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["ok"] is True
            assert payload["server"] == daemon.url
            assert payload["jobs"][0]["functions"][0]["name"] == "inc"

    def test_cli_falls_back_when_no_daemon_listens(self, tmp_path, capsys):
        source_path = tmp_path / "inc.rs"
        source_path.write_text(INC)
        # Port 1 is never listening; the CLI must fall back in-process.
        status = cli_main(
            ["--server", "http://127.0.0.1:1", "--no-cache", str(source_path)]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "falling back to in-process verification" in captured.err
        payload = json.loads(captured.out)
        assert payload["ok"] is True
        assert "server" not in payload  # the in-process report shape

    def test_cli_reports_failing_program_through_server(self, tmp_path, capsys):
        source_path = tmp_path / "bad.rs"
        source_path.write_text(BAD)
        with run_daemon() as daemon:
            status = cli_main(["--server", daemon.url, str(source_path)])
            assert status == 1
            payload = json.loads(capsys.readouterr().out)
            assert payload["ok"] is False

    def test_cli_local_only_flags_bypass_server(self, tmp_path, capsys):
        source_path = tmp_path / "inc.rs"
        source_path.write_text(INC)
        status = cli_main(
            ["--server", "http://127.0.0.1:1", "--no-cache", "--stats", str(source_path)]
        )
        captured = capsys.readouterr()
        assert status == 0
        assert "--stats" in captured.err  # warned about local-only flag
        assert "session metrics" in captured.out
