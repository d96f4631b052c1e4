"""Telemetry & coverage overhead — the disabled paths must stay free.

The instrumentation contract (see ``repro/telemetry/__init__`` and
``repro/coverage/__init__``) is that a run with telemetry or coverage
disabled pays only one no-op method call per instrumented operation,
and the engine's probe branch reduces to a single ``is not None`` test
per event. This bench quantifies both planes:

* measures the per-packet wall cost of the §5 throughput workload with
  telemetry and coverage disabled (the default, i.e. what every test
  and user run pays);
* measures the cost of the no-op metric calls a packet's path performs
  and asserts their share of the per-packet budget stays under 5%;
* measures the cost of the no-op coverage ``hit()`` / flight-recorder
  ``note()`` calls the same path performs and asserts the same 5%
  bound — clean runs must not pay for the coverage map;
* reports the enabled-mode cost of each plane alongside for context
  (enabled runs pay for real counters/map updates — that cost is
  accepted, not bounded).
"""

import time

from conftest import emit
from workloads import two_host_config

from repro.core.config import TrafficConfig
from repro.core.orchestrator import run_test
from repro.coverage import runtime as coverage
from repro.coverage.map import NULL_DOMAIN
from repro.coverage.recorder import NULL_RECORDER
from repro.telemetry import runtime as telemetry
from repro.telemetry.metrics import NULL_COUNTER, NULL_GAUGE

#: Upper bound on no-op telemetry calls along one packet's path through
#: switch (rx/lookup/match/tx), mirror (counter + gauge), dumper and
#: NIC (timer arm/cancel, pacing): counted from the instrumented sites.
NOOP_CALLS_PER_PACKET = 16

#: Upper bound on no-op coverage calls per packet: switch table lookup,
#: iteration tracking, mirror clone, pipeline stage, GBN accept/ack on
#: the RNIC plus a flight-recorder note — counted from the ``.hit()``
#: and ``.note()`` sites a data packet can cross.
COVERAGE_CALLS_PER_PACKET = 8

#: The contract this bench enforces (per plane).
MAX_DISABLED_OVERHEAD = 0.05


def _throughput_config(seed: int):
    traffic = TrafficConfig(num_connections=1, rdma_verb="write",
                            num_msgs_per_qp=50, message_size=102400,
                            mtu=1024, barrier_sync=False, tx_depth=4)
    return two_host_config("cx6", traffic, seed=seed, dumpers=2)


def _time_run(config) -> tuple:
    start = time.perf_counter_ns()
    result = run_test(config)
    elapsed_ns = time.perf_counter_ns() - start
    return elapsed_ns, len(result.trace)


def _noop_call_cost_ns(calls: int = 2_000_000) -> float:
    """Wall cost of one disabled-mode metric call, measured hot."""
    inc = NULL_COUNTER.inc
    set_ = NULL_GAUGE.set
    start = time.perf_counter_ns()
    for _ in range(calls // 2):
        inc()
        set_(0)
    return (time.perf_counter_ns() - start) / calls


def _noop_coverage_call_cost_ns(calls: int = 2_000_000) -> float:
    """Wall cost of one disabled-mode coverage call, measured hot."""
    hit = NULL_DOMAIN.hit
    note = NULL_RECORDER.note
    start = time.perf_counter_ns()
    for _ in range(calls // 2):
        hit("p", 0)
        note(0, "e")
    return (time.perf_counter_ns() - start) / calls


def test_telemetry_disabled_overhead(benchmark):
    telemetry.disable()  # belt and braces: the default state
    _time_run(_throughput_config(62))  # warm caches / JIT-free steady state
    disabled_ns, packets = _time_run(_throughput_config(62))
    per_packet_ns = disabled_ns / packets

    noop_ns = _noop_call_cost_ns()
    noop_share = NOOP_CALLS_PER_PACKET * noop_ns / per_packet_ns

    telemetry.enable()
    try:
        enabled_ns, _ = _time_run(_throughput_config(62))
    finally:
        telemetry.disable()

    lines = [
        f"workload: {packets} packets through the §5 throughput config",
        f"disabled-telemetry run: {disabled_ns / 1e6:.1f} ms "
        f"({per_packet_ns:.0f} ns/packet)",
        f"no-op metric call: {noop_ns:.1f} ns "
        f"(x{NOOP_CALLS_PER_PACKET}/packet = {noop_share * 100:.2f}% "
        f"of the packet budget; bound: {MAX_DISABLED_OVERHEAD * 100:.0f}%)",
        f"enabled-telemetry run: {enabled_ns / 1e6:.1f} ms "
        f"({enabled_ns / disabled_ns:.2f}x disabled)",
    ]
    emit("telemetry_overhead", lines)

    assert noop_share < MAX_DISABLED_OVERHEAD, (
        f"disabled-telemetry no-op calls cost {noop_share * 100:.2f}% "
        f"of the per-packet budget (limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)")

    benchmark.pedantic(run_test, args=(_throughput_config(62),),
                       rounds=2, iterations=1)


def test_coverage_disabled_overhead(benchmark):
    coverage.disable()  # belt and braces: the default state
    telemetry.disable()
    _time_run(_throughput_config(63))  # warm caches / JIT-free steady state
    disabled_ns, packets = _time_run(_throughput_config(63))
    per_packet_ns = disabled_ns / packets

    noop_ns = _noop_coverage_call_cost_ns()
    noop_share = COVERAGE_CALLS_PER_PACKET * noop_ns / per_packet_ns

    coverage.enable()
    try:
        enabled_ns, _ = _time_run(_throughput_config(63))
        points = len(coverage.current().total_snapshot())
    finally:
        coverage.disable()

    lines = [
        f"workload: {packets} packets through the §5 throughput config",
        f"disabled-coverage run: {disabled_ns / 1e6:.1f} ms "
        f"({per_packet_ns:.0f} ns/packet)",
        f"no-op coverage call: {noop_ns:.1f} ns "
        f"(x{COVERAGE_CALLS_PER_PACKET}/packet = {noop_share * 100:.2f}% "
        f"of the packet budget; bound: {MAX_DISABLED_OVERHEAD * 100:.0f}%)",
        f"enabled-coverage run: {enabled_ns / 1e6:.1f} ms "
        f"({enabled_ns / disabled_ns:.2f}x disabled), "
        f"{points} coverage point(s) recorded",
    ]
    emit("coverage_overhead", lines)

    assert noop_share < MAX_DISABLED_OVERHEAD, (
        f"disabled-coverage no-op calls cost {noop_share * 100:.2f}% "
        f"of the per-packet budget (limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)")

    benchmark.pedantic(run_test, args=(_throughput_config(63),),
                       rounds=2, iterations=1)
