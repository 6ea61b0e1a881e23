"""The observability layer: metrics registry, tracer, events, exporters,
serial-vs-parallel counter determinism, and the CLI export flags."""

import json

import pytest

from repro.obs import (
    EventLog,
    MetricError,
    MetricsRegistry,
    NOOP_SPAN,
    ObsContext,
    Tracer,
    current_obs,
    span,
    to_prometheus,
    use_obs,
)
from repro.service import VerifyJob, VerifySession, verify_jobs
from repro.service.cli import main as cli_main


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        registry.counter("a.hits").inc()
        registry.counter("a.hits").inc(4)
        assert registry.value("a.hits") == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("a").inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(2)
        assert registry.value("depth") == 2

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", (1, 5, 10))
        for value in (0, 1, 3, 7, 100):
            histogram.observe(value)
        snapshot = registry.snapshot()["sizes"]
        # le=1 gets {0, 1}; le=5 gets {3}; le=10 gets {7}; +Inf gets {100}.
        assert snapshot["counts"] == [2, 1, 1, 1]
        assert snapshot["count"] == 5
        assert snapshot["sum"] == 111

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_merge_adds_counters_and_histograms_takes_max_gauges(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        left.gauge("g").set(7)
        right.gauge("g").set(5)
        left.histogram("h", (1, 2)).observe(1)
        right.histogram("h", (1, 2)).observe(2)
        left.merge(right.snapshot())
        assert left.value("c") == 5
        assert left.value("g") == 7
        assert left.snapshot()["h"]["count"] == 2

    def test_merge_auto_registers_unknown_metrics(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        right.counter("only.right").inc(9)
        left.merge(right.snapshot())
        assert left.value("only.right") == 9

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c", help="x", unit="things").inc()
        registry.histogram("h", (1, 2)).observe(1.5)
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _parse_prometheus(text: str):
    """Minimal parser: {metric_name_or_series: value}, plus TYPE lines."""
    samples = {}
    types = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        samples[series] = float(value)
    return samples, types


class TestPrometheusExport:
    def test_counter_and_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("smt.queries").inc(7)
        histogram = registry.histogram("smt.query_seconds", (0.1, 1.0), unit="seconds")
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        samples, types = _parse_prometheus(to_prometheus(registry.snapshot()))
        assert samples["repro_smt_queries_total"] == 7
        assert types["repro_smt_queries_total"] == "counter"
        assert types["repro_smt_query_seconds"] == "histogram"
        # Cumulative buckets: le=0.1 has 1, le=1.0 has 2, +Inf has all 3.
        assert samples['repro_smt_query_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_smt_query_seconds_bucket{le="1"}'] == 2
        assert samples['repro_smt_query_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_smt_query_seconds_count"] == 3
        assert samples["repro_smt_query_seconds_sum"] == pytest.approx(5.55)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NOOP_SPAN
        with tracer.span("anything"):
            pass
        assert tracer.events == []

    def test_enabled_tracer_records_complete_events(self):
        tracer = Tracer(enabled=True)
        with tracer.span("phase", function="f"):
            pass
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["name"] == "phase"
        assert event["args"] == {"function": "f"}
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)

    def test_chrome_export_schema(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        phases = [event["ph"] for event in trace["traceEvents"]]
        assert phases.count("X") == 2
        assert "M" in phases  # process_name metadata

    def test_absorb_keeps_foreign_pids(self):
        tracer = Tracer(enabled=True)
        tracer.absorb([{"ph": "X", "name": "w", "ts": 0, "dur": 1, "pid": 99999, "tid": 1}])
        labels = [
            event["args"]["name"]
            for event in tracer.to_chrome()["traceEvents"]
            if event["ph"] == "M"
        ]
        assert "repro worker 99999" in labels

    def test_span_feeds_phase_seconds_counter(self):
        registry = MetricsRegistry()
        tracer = Tracer(enabled=True, registry=registry)
        with tracer.span("check"):
            pass
        assert "phase_seconds.check" in registry.snapshot()


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_disabled_log_records_nothing(self):
        log = EventLog(enabled=False)
        log.emit("smt_check", result="sat")
        assert log.to_json()["events"] == []

    def test_ring_buffer_drops_oldest(self):
        log = EventLog(enabled=True, limit=2)
        for index in range(5):
            log.emit("tick", index=index)
        payload = log.to_json()
        assert [event["index"] for event in payload["events"]] == [3, 4]
        assert payload["dropped"] == 3

    def test_events_carry_timestamp_and_pid(self):
        log = EventLog(enabled=True)
        log.emit("smt_check", result="unsat")
        (event,) = log.to_json()["events"]
        assert event["type"] == "smt_check"
        assert event["result"] == "unsat"
        assert event["ts"] > 0 and event["pid"] > 0


# ---------------------------------------------------------------------------
# Context plumbing
# ---------------------------------------------------------------------------


class TestObsContext:
    def test_module_span_is_noop_by_default(self):
        assert span("anything") is NOOP_SPAN

    def test_use_obs_installs_and_restores(self):
        context = ObsContext.create(trace=True)
        default = current_obs()
        with use_obs(context):
            assert current_obs() is context
            with span("phase"):
                pass
        assert current_obs() is default
        assert [event["name"] for event in context.tracer.events] == ["phase"]

    def test_contexts_isolate_registries(self):
        first, second = ObsContext.create(), ObsContext.create()
        with use_obs(first):
            current_obs().registry.counter("n").inc()
        with use_obs(second):
            assert current_obs().registry.snapshot() == {}

    def test_take_metrics_ships_the_delta_since_the_last_take(self):
        context = ObsContext.create(trace=True)
        with use_obs(context):
            current_obs().registry.counter("n").inc(2)
            first = context.take_metrics()
            current_obs().registry.counter("n").inc()
            with span("phase"):
                pass
        assert first["n"]["value"] == 2
        second = context.take_metrics()
        assert second["n"]["value"] == 1
        # The tracer's phase counters follow the registry they were taken with.
        assert "phase_seconds.phase" in second
        assert context.registry.snapshot() == {}
        assert context.tracer.registry is context.registry


# ---------------------------------------------------------------------------
# Pipeline integration: determinism across scheduling modes
# ---------------------------------------------------------------------------

MULTI = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc(x: i32) -> i32 { x + 1 }

#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc2(x: i32) -> i32 { inc(inc(x)) }

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


def _counter_totals(session: VerifySession):
    """All non-time scalar metrics of a session (times are nondeterministic)."""
    totals = {}
    for name, entry in session.metrics_snapshot().items():
        if entry.get("unit") == "seconds":
            continue
        if entry["kind"] == "histogram":
            totals[name] = (entry["count"], tuple(entry["counts"]))
        else:
            totals[name] = entry["value"]
    return totals


class TestSchedulingDeterminism:
    def test_serial_and_parallel_counter_totals_match(self):
        job = VerifyJob(source=MULTI, name="multi")
        serial = VerifySession(use_cache=False, jobs=1)
        parallel = VerifySession(use_cache=False, jobs=2)
        serial_report = verify_jobs([job], serial)
        parallel_report = verify_jobs([job], parallel)
        assert serial_report.ok and parallel_report.ok
        assert _counter_totals(serial) == _counter_totals(parallel)

    def test_verification_emits_expected_counter_families(self):
        session = VerifySession(use_cache=False)
        verify_jobs([VerifyJob(source=MULTI, name="multi")], session)
        names = set(session.metrics_snapshot())
        assert "fixpoint.smt_queries" in names
        assert "smt.queries.oneshot" in names
        assert "smt.query_seconds" in names

    def test_function_report_metrics_survive_scheduling(self):
        job = VerifyJob(source=MULTI, name="multi")
        serial = verify_jobs([job], VerifySession(use_cache=False, jobs=1))
        parallel = verify_jobs([job], VerifySession(use_cache=False, jobs=2))
        by_name = lambda report: {  # noqa: E731
            fn.name: {
                key: value
                for key, value in fn.metrics.items()
                if not key.endswith("_seconds")
            }
            for fn in report.jobs[0].functions
        }
        assert by_name(serial) == by_name(parallel)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_function_metric_deltas_add_up_to_the_session(self, jobs):
        session = VerifySession(use_cache=False, jobs=jobs)
        report = verify_jobs([VerifyJob(source=MULTI, name="multi")], session)
        fresh = [fn for fn in report.jobs[0].functions if not fn.cached]
        assert fresh
        counters = {
            name: entry["value"]
            for name, entry in session.metrics_snapshot().items()
            if entry["kind"] == "counter" and name.startswith(("smt.", "fixpoint."))
        }
        assert "smt.clauses_retained" in counters and "fixpoint.smt_queries" in counters
        for name, value in counters.items():
            total = sum(fn.metrics.get(name, 0) for fn in fresh)
            assert total == pytest.approx(value, rel=1e-9), name


# ---------------------------------------------------------------------------
# CLI export flags
# ---------------------------------------------------------------------------


class TestCliExports:
    def test_trace_metrics_events_and_stats(self, tmp_path, capsys):
        source = tmp_path / "program.rs"
        source.write_text(MULTI)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        events_path = tmp_path / "events.json"
        code = cli_main(
            [
                str(source),
                "--no-cache",
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
                "--events-out",
                str(events_path),
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== session metrics ==" in out
        assert "fixpoint.smt_queries" in out

        trace = json.loads(trace_path.read_text())
        names = {event["name"] for event in trace["traceEvents"] if event["ph"] == "X"}
        assert {"parse", "spec_elaboration", "mir_lower", "check", "fixpoint"} <= names

        samples, _ = _parse_prometheus(metrics_path.read_text())
        assert samples["repro_fixpoint_smt_queries_total"] > 0

        events = json.loads(events_path.read_text())
        assert any(event["type"] == "smt_check" for event in events["events"])

    def test_parallel_trace_includes_worker_processes(self, tmp_path):
        source = tmp_path / "program.rs"
        source.write_text(MULTI)
        trace_path = tmp_path / "trace.json"
        code = cli_main(
            [str(source), "--no-cache", "--jobs", "2", "--summary", "--trace-out", str(trace_path)]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        span_pids = {event["pid"] for event in trace["traceEvents"] if event["ph"] == "X"}
        # Main process always traces parse/spec elaboration; per-function
        # spans come from the pool (>= 1 worker pid when the sandbox allows
        # subprocesses; the serial fallback leaves everything on one pid).
        assert len(span_pids) >= 1
        labels = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        assert "repro (main)" in labels
