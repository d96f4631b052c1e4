"""Telemetry must never change simulation results.

The subsystem's core guarantee (see ``repro/sessions``): it
observes the simulation but never feeds anything back — no events
scheduled, no draws from the seeded PRNG, no component state mutated.
These tests run identical workloads with telemetry enabled and disabled
and require byte-identical traces, verdicts and scores.
"""

import pytest

from repro.core.config import TestConfig, TrafficConfig
from repro.core.fuzz import LuminaFuzzer
from repro.core.orchestrator import run_test
from repro.core.report import render_report
from repro.core.trace import format_trace
from repro.telemetry import runtime as telemetry


@pytest.fixture(autouse=True)
def _clean_session():
    telemetry.disable()
    yield
    telemetry.disable()


def _config(seed: int = 11) -> TestConfig:
    return TestConfig.from_dict({
        "requester": {"nic": {"type": "cx5", "ip-list": ["10.0.0.1/24"]}},
        "responder": {"nic": {"type": "cx5", "ip-list": ["10.0.0.2/24"]}},
        "traffic": {
            "num-connections": 2,
            "rdma-verb": "write",
            "num-msgs-per-qp": 6,
            "message-size": 8192,
            "mtu": 1024,
            "data-pkt-events": [
                {"qpn": 1, "psn": 3, "type": "drop", "iter": 1},
                {"qpn": 2, "psn": 4, "type": "ecn", "iter": 1},
            ],
        },
        "seed": seed,
    })


def test_run_results_identical_enabled_vs_disabled():
    baseline = run_test(_config())

    telemetry.enable()
    try:
        traced = run_test(_config())
    finally:
        telemetry.disable()

    assert format_trace(traced.trace) == format_trace(baseline.trace)
    assert render_report(traced) == render_report(baseline)
    assert traced.integrity.ok == baseline.integrity.ok
    assert traced.duration_ns == baseline.duration_ns
    assert traced.switch_counters == baseline.switch_counters


def test_fuzzer_scores_identical_enabled_vs_disabled():
    def fuzz_scores():
        fuzzer = LuminaFuzzer(_config(seed=5), seed=5)
        report = fuzzer.run(iterations=3)
        return report.pool_scores, report.iterations_run, report.invalid_runs

    baseline = fuzz_scores()
    telemetry.enable()
    try:
        traced = fuzz_scores()
    finally:
        telemetry.disable()
    assert traced == baseline


def test_enabled_run_actually_collects():
    """Guard against the guarantee being satisfied vacuously."""
    session = telemetry.enable()
    try:
        run_test(_config())
        # Read while enabled: disabling resets the session's metrics.
        assert len(session.registry) > 10
        assert len(session.tracer.spans) >= 4  # setup/traffic/drain/collect
        processed = session.registry.find("sim_events_processed", sim="sim")
        assert processed is not None and processed.value > 0
    finally:
        telemetry.disable()
