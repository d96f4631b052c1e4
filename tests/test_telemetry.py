"""Unit tests for the telemetry subsystem (metrics, spans, exporters)."""

import json

import pytest

from repro.sessions import session_scope
from repro.sim.engine import Simulator
from repro.telemetry import runtime as telemetry
from repro.telemetry.export import (
    jsonl_lines,
    parse_prometheus,
    to_chrome_trace,
    to_prometheus,
)
from repro.telemetry.instrument import attach_simulator
from repro.telemetry.metrics import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
)
from repro.telemetry.spans import NULL_TRACER, Tracer


@pytest.fixture(autouse=True)
def _clean_session():
    telemetry.disable()
    yield
    telemetry.disable()


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts", host="h1")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_and_labels_share_one_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("pkts", host="h1")
        b = registry.counter("pkts", host="h1")
        c = registry.counter("pkts", host="h2")
        assert a is b and a is not c
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("m", x="1", y="2")
        b = registry.counter("m", y="2", x="1")
        assert a is b

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_gauge_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 5

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
        for value in (5, 50, 500, 5000):
            hist.observe(value)
        assert hist.counts == [1, 2, 3]  # cumulative per bound
        assert hist.count == 4
        assert hist.sum == 5555

    def test_null_twins_are_inert(self):
        NULL_COUNTER.inc()
        NULL_GAUGE.set(7)
        NULL_HISTOGRAM.observe(1.0)
        # Shared singletons hold no state at all.
        assert not hasattr(NULL_COUNTER, "value")


class TestRuntime:
    def test_disabled_by_default(self):
        assert telemetry.active() is None
        session = telemetry.current()
        assert session.registry is NULL_REGISTRY
        assert session.tracer is NULL_TRACER

    def test_enable_disable_cycle(self):
        session = telemetry.enable()
        assert telemetry.active() is session
        assert telemetry.current() is session
        telemetry.disable()
        assert telemetry.active() is None

    def test_disabled_session_hands_out_null_twins(self):
        tel = telemetry.current()
        assert tel.counter("x") is NULL_COUNTER
        assert tel.gauge("x") is NULL_GAUGE
        with tel.span("phase"):
            pass
        with tel.wall_span("phase"):
            pass
        assert tel.instant("e") is None

    def test_context_manager_scopes_session(self, tmp_path):
        with session_scope(telemetry=str(tmp_path)) as tel:
            tel.counter("inside").inc()
            assert telemetry.active() is tel
        assert telemetry.active() is None
        assert (tmp_path / "metrics.prom").exists()


class TestSpans:
    def test_span_records_sim_time_bounds(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)
        with tracer.span("window", pid="p", tid="t"):
            sim.schedule(500, lambda: None)
            sim.run()
        (span,) = tracer.spans
        assert span.start_ns == 0
        assert span.duration_ns == 500
        assert span.wall_ns > 0

    def test_span_args_via_set(self):
        tracer = Tracer()
        with tracer.span("s", score=1) as span:
            span.set(verdict="ok")
        assert tracer.spans[0].args == {"score": 1, "verdict": "ok"}

    def test_instant_stamps_current_clock(self):
        now = [0]
        tracer = Tracer(clock=lambda: now[0])
        now[0] = 42
        tracer.instant("evt", pid="p")
        assert tracer.instants[0].ts_ns == 42

    def test_wall_span_is_monotonic(self):
        tracer = Tracer()
        with tracer.wall_span("w"):
            pass
        span = tracer.spans[0]
        assert span.start_ns >= 0
        assert span.duration_ns >= 0


class TestChromeTraceExport:
    def _traced(self):
        tracer = Tracer(clock=lambda: 2000)
        tracer.set_process_name("h1", "host h1")
        tracer.set_thread_name("h1", "rx", "rx pipeline")
        tracer.complete("phase", 1_000, 3_000, pid="h1", tid="rx", psn=7)
        tracer.instant("retransmit", pid="h1", tid="rx")
        return tracer

    def test_trace_is_valid_json_with_expected_shape(self):
        doc = json.loads(json.dumps(to_chrome_trace(self._traced())))
        events = doc["traceEvents"]
        phases = sorted(e["ph"] for e in events)
        assert phases == ["M", "M", "X", "i"]
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["ts"] == 1.0      # 1000 ns -> 1 us
        assert complete["dur"] == 2.0
        assert complete["args"]["psn"] == 7
        assert "wall_us" in complete["args"]

    def test_metadata_names_processes_and_threads(self):
        events = to_chrome_trace(self._traced())["traceEvents"]
        meta = {e["name"]: e for e in events if e["ph"] == "M"}
        assert meta["process_name"]["args"]["name"] == "host h1"
        assert meta["thread_name"]["args"]["name"] == "rx pipeline"


class TestPrometheusRoundTrip:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("pkts", host="h1").inc(3)
        registry.gauge("depth").set(9)
        hist = registry.histogram("lat", buckets=(10, 100))
        hist.observe(5)
        hist.observe(50)

        samples = parse_prometheus(to_prometheus(registry))
        assert samples["pkts"][(("host", "h1"),)] == 3
        assert samples["depth"][()] == 9
        assert samples["depth_high_water"][()] == 9
        assert samples["lat_bucket"][(("le", "10"),)] == 1
        assert samples["lat_bucket"][(("le", "+Inf"),)] == 2
        assert samples["lat_sum"][()] == 55
        assert samples["lat_count"][()] == 2

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}


class TestJsonl:
    def test_lines_are_parseable_and_ordered(self):
        tracer = Tracer()
        tracer.instant("b")
        tracer.complete("a", 0, 10)
        records = [json.loads(line) for line in jsonl_lines(tracer)]
        assert [r["id"] for r in records] == [0, 1]
        assert records[0]["kind"] == "instant"
        assert records[1]["dur_ns"] == 10


class TestSimProbe:
    def test_probe_records_callbacks_and_hotspots(self):
        session = telemetry.enable()
        sim = Simulator()
        probe = attach_simulator(sim, session)

        def busy():
            pass

        for i in range(5):
            sim.schedule(i, busy)
        sim.run()
        probe.flush()

        assert session.registry.find("sim_events_processed", sim="sim").value == 5
        (top, count, total_ns) = probe.hotspots(1)[0]
        assert "busy" in top
        assert count == 5
        assert total_ns >= 0

    def test_probe_syncs_tracer_clock(self):
        session = telemetry.enable()
        sim = Simulator()
        attach_simulator(sim, session)
        sim.schedule(300, lambda: session.instant("mark"))
        sim.run()
        assert session.tracer.instants[0].ts_ns == 300

    def test_no_probe_when_disabled(self):
        sim = Simulator()
        assert sim.probe is None
        sim.schedule(1, lambda: None)
        sim.run()  # probe-free fast path


class TestReportCommand:
    def test_report_renders_run_directory(self, tmp_path, capsys):
        from repro.__main__ import main

        config = tmp_path / "config.json"
        out = tmp_path / "tel"
        from repro.__main__ import _EXAMPLE_CONFIG

        config.write_text(json.dumps(_EXAMPLE_CONFIG))
        status = main(["run", str(config), "--telemetry", str(out),
                       "--output", str(tmp_path / "report.txt")])
        assert status == 0
        assert telemetry.active() is None  # CLI tears the session down
        for artefact in ("trace.json", "metrics.prom", "events.jsonl"):
            assert (out / artefact).exists()

        assert main(["telemetry-report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Telemetry report" in text
        assert "retransmitted packets" in text
        assert "Top wall-clock hot spots" in text
