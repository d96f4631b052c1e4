"""Conformance suite: a standardised battery of Lumina tests.

The paper closes by arguing the community needs "a comprehensive suite
of testing tools and an ImageNet-like benchmark" for hardware network
stacks (§1). This module is that benchmark for the simulated testbed: a
fixed battery of scenarios, each with a spec-derived pass criterion,
run against any NIC model to produce a scorecard.

Checks are wire-evidence only (trace + counters + app metrics), so the
same battery would be meaningful against real hardware:

==============================  ==========================================
check                           what passes
==============================  ==========================================
gbn-logic                       Go-back-N FSM compliance under drops
fast-retransmission             loss recovered via NACK, not timeout
recovery-latency                total recovery within budget (100 µs)
read-loss-recovery              OOO Read responses recovered promptly
tail-drop-timeout               last-packet drop recovered by RTO
corruption-detection            iCRC failures detected and recovered
counter-consistency             counters match the wire trace
cnp-generation                  marks produce CNPs; none spurious
cnp-interval-honoured           configured CNP interval respected
ets-work-conservation           idle-queue bandwidth is redistributed
isolation-under-read-loss       innocent flows unaffected by others' drops
timeout-spec-compliance         RTO ≈ 4.096 µs · 2^timeout, retries exact
reorder-tolerance               reordering recovered without a timeout
rnr-flow-control                Sends without recv WQEs RNR-NAK, then finish
==============================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

if TYPE_CHECKING:  # avoid a runtime core -> exec/store import cycle
    from ..faults.scenarios import FaultScenario
    from ..store.index import CampaignStore

from ..coverage import runtime as coverage
from .analyzers.base import AnalyzerContext, AnalyzerResult, Outcome
from .analyzers.cnp import min_cnp_interval_ns
from .analyzers.goodput import per_qp_goodput_gbps, split_mct
from .analyzers.registry import get_analyzer
from .config import (
    DataPacketEvent,
    DumperPoolConfig,
    EtsConfig,
    EtsQueueSpec,
    HostConfig,
    PeriodicEcnIntent,
    RoceParameters,
    TestConfig,
    TrafficConfig,
)
from .orchestrator import run_test
from .results import TestResult

__all__ = ["Outcome", "CheckResult", "Scorecard", "COVERAGE",
           "run_conformance_suite", "run_single_check", "CHECKS",
           "DEFAULT_SUITE_SEED"]

#: The battery's canonical seed. Every front-end (CLI, api facade,
#: examples) that wants "the standard scorecard" resolves a missing
#: seed to this one value — the 77-vs-None divergence between entry
#: points is gone.
DEFAULT_SUITE_SEED = 77


# Outcome now lives with the analyzer protocol (analyzers.base) and is
# re-exported here unchanged for every existing ``suite.Outcome`` user.


def _analyze(name: str, result: TestResult) -> AnalyzerResult:
    """Run one registered analyzer over a finished test."""
    return get_analyzer(name).analyze(result.trace,
                                      AnalyzerContext.for_result(result))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    outcome: Optional[Outcome] = None
    #: Micro-behavior coverage recorded while this check ran (snapshot
    #: rows); None when coverage was disabled.
    coverage: Optional[List[list]] = None
    #: Flight-recorder timeline, attached only when the check did not
    #: PASS (FAIL or INCONCLUSIVE verdicts get a dump, §3.5 spirit).
    flight_record: Optional[List[list]] = None

    def __post_init__(self) -> None:
        if self.outcome is None:
            self.outcome = Outcome.PASS if self.passed else Outcome.FAIL

    @classmethod
    def inconclusive(cls, name: str, detail: str) -> "CheckResult":
        return cls(name, False, detail, outcome=Outcome.INCONCLUSIVE)

    @property
    def is_inconclusive(self) -> bool:
        return self.outcome is Outcome.INCONCLUSIVE

    def __str__(self) -> str:
        status = self.outcome.value if self.outcome else (
            "PASS" if self.passed else "FAIL")
        return f"[{status}] {self.name:<28s} {self.detail}"


@dataclass
class Scorecard:
    nic: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.outcome is Outcome.PASS)

    @property
    def inconclusive(self) -> int:
        return sum(1 for r in self.results if r.is_inconclusive)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def failures(self) -> List[CheckResult]:
        """Checks that genuinely failed (INCONCLUSIVE is not failure)."""
        return [r for r in self.results if r.outcome is Outcome.FAIL]

    def inconclusives(self) -> List[CheckResult]:
        return [r for r in self.results if r.is_inconclusive]

    def render(self) -> str:
        header = (f"Conformance scorecard: {self.nic} "
                  f"({self.passed}/{self.total} checks passed")
        if self.inconclusive:
            header += f", {self.inconclusive} inconclusive"
        header += ")"
        lines = [header, "=" * 60]
        lines.extend(str(r) for r in self.results)
        return "\n".join(lines)


def _config(nic: str, traffic: TrafficConfig, seed: int,
            roce: Optional[RoceParameters] = None,
            max_duration_ns: int = 60_000_000_000,
            faults: Optional["FaultScenario"] = None) -> TestConfig:
    roce = roce or RoceParameters()
    config = TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",), roce=roce),
        responder=HostConfig(nic_type=nic, ip_list=("10.0.0.2/24",), roce=roce),
        traffic=traffic,
        dumpers=DumperPoolConfig(num_servers=3),
        seed=seed,
        max_duration_ns=max_duration_ns,
    )
    if faults is not None:
        config = faults.apply(config)
    return config


def _drop_run(nic: str, verb: str, seed: int,
              faults: Optional["FaultScenario"] = None) -> TestResult:
    traffic = TrafficConfig(
        num_connections=1, rdma_verb=verb, num_msgs_per_qp=2,
        message_size=102400, mtu=1024, min_retransmit_timeout=17,
        data_pkt_events=(DataPacketEvent(qpn=1, psn=50, type="drop"),),
    )
    return run_test(_config(nic, traffic, seed, faults=faults))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_gbn_logic(nic: str, seed: int,
                    faults: Optional["FaultScenario"] = None) -> CheckResult:
    result = _drop_run(nic, "write", seed, faults)
    report = _analyze("gbn", result).data
    if not report.conclusive:
        return CheckResult.inconclusive(
            "gbn-logic",
            f"capture gaps overlap {len(report.inconclusive_connections)} "
            f"connection(s); coverage {result.trace.coverage:.1%}")
    return CheckResult(
        "gbn-logic", report.compliant,
        f"{report.packets_checked} packets checked, "
        f"{len(report.violations)} violation(s)")


def check_fast_retransmission(nic: str, seed: int,
                              faults: Optional["FaultScenario"] = None,
                              ) -> CheckResult:
    result = _drop_run(nic, "write", seed, faults)
    events = _analyze("retransmission", result).data
    if (not events and result.trace.has_gaps) or \
            (events and not events[0].conclusive):
        return CheckResult.inconclusive(
            "fast-retransmission",
            f"capture gaps overlap the recovery window; "
            f"coverage {result.trace.coverage:.1%}")
    ok = bool(events) and events[0].fast_retransmission and events[0].recovered
    return CheckResult("fast-retransmission", ok,
                       "recovered via NACK" if ok else "timeout or unrecovered")


def check_recovery_latency(nic: str, seed: int,
                           faults: Optional["FaultScenario"] = None,
                           budget_ns: int = 100_000) -> CheckResult:
    result = _drop_run(nic, "write", seed, faults)
    events = _analyze("retransmission", result).data
    if (not events and result.trace.has_gaps) or \
            (events and not events[0].conclusive):
        return CheckResult.inconclusive(
            "recovery-latency",
            f"capture gaps overlap the recovery window; "
            f"coverage {result.trace.coverage:.1%}")
    if not events:
        return CheckResult("recovery-latency", False,
                           "no drop event observed in the trace")
    event = events[0]
    total = event.total_recovery_ns or 0
    return CheckResult(
        "recovery-latency", bool(total) and total <= budget_ns,
        f"total {total / 1e3:.1f} us (budget {budget_ns / 1e3:.0f} us)")


def check_read_loss_recovery(nic: str, seed: int,
                             faults: Optional["FaultScenario"] = None,
                             budget_ns: int = 1_000_000) -> CheckResult:
    result = _drop_run(nic, "read", seed, faults)
    events = _analyze("retransmission", result).data
    if (not events and result.trace.has_gaps) or \
            (events and not events[0].conclusive):
        return CheckResult.inconclusive(
            "read-loss-recovery",
            f"capture gaps overlap the recovery window; "
            f"coverage {result.trace.coverage:.1%}")
    if not events:
        return CheckResult("read-loss-recovery", False,
                           "no drop event observed in the trace")
    event = events[0]
    total = event.total_recovery_ns or 0
    ok = event.recovered and total <= budget_ns
    return CheckResult(
        "read-loss-recovery", ok,
        f"total {total / 1e3:.1f} us (budget {budget_ns / 1e3:.0f} us)")


def check_tail_drop_timeout(nic: str, seed: int,
                            faults: Optional["FaultScenario"] = None,
                            ) -> CheckResult:
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=1,
        message_size=4096, mtu=1024, min_retransmit_timeout=10,
        data_pkt_events=(DataPacketEvent(qpn=1, psn=4, type="drop"),),
    )
    result = run_test(_config(nic, traffic, seed, faults=faults))
    timeouts = result.requester_counters["local_ack_timeout_err"]
    done = all(m.ok for m in result.traffic_log.all_messages)
    return CheckResult("tail-drop-timeout", done and timeouts >= 1,
                       f"{timeouts} timeout(s), "
                       f"{'completed' if done else 'stuck'}")


def check_corruption_detection(nic: str, seed: int,
                               faults: Optional["FaultScenario"] = None,
                               ) -> CheckResult:
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=2,
        message_size=10240, mtu=1024,
        data_pkt_events=(DataPacketEvent(qpn=1, psn=3, type="corrupt"),),
    )
    result = run_test(_config(nic, traffic, seed, faults=faults))
    detected = result.responder_counters["rx_icrc_errors"] == 1
    done = all(m.ok for m in result.traffic_log.all_messages)
    return CheckResult("corruption-detection", detected and done,
                       f"icrc_errors={result.responder_counters['rx_icrc_errors']}, "
                       f"{'recovered' if done else 'stuck'}")


def check_counter_consistency(nic: str, seed: int,
                              faults: Optional["FaultScenario"] = None,
                              ) -> CheckResult:
    mismatches: List[str] = []
    for verb, event in (("write", DataPacketEvent(1, 3, "ecn")),
                        ("read", DataPacketEvent(1, 2, "drop"))):
        traffic = TrafficConfig(num_connections=1, rdma_verb=verb,
                                num_msgs_per_qp=2, message_size=10240,
                                mtu=1024, data_pkt_events=(event,))
        report = _analyze(
            "counters",
            run_test(_config(nic, traffic, seed, faults=faults))).data
        if not report.conclusive:
            return CheckResult.inconclusive(
                "counter-consistency",
                "capture gaps: trace-derived expectations unreliable")
        mismatches.extend(str(m) for m in report.mismatches)
    return CheckResult("counter-consistency", not mismatches,
                       mismatches[0] if mismatches else "all consistent")


def check_cnp_generation(nic: str, seed: int,
                         faults: Optional["FaultScenario"] = None,
                         ) -> CheckResult:
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=2,
        message_size=10240, mtu=1024,
        data_pkt_events=(DataPacketEvent(qpn=1, psn=3, type="ecn"),),
    )
    result = run_test(_config(nic, traffic, seed, faults=faults))
    report = _analyze("cnp", result).data
    if not report.conclusive:
        return CheckResult.inconclusive(
            "cnp-generation",
            f"capture gaps: a lost clone may hide a mark or CNP; "
            f"coverage {result.trace.coverage:.1%}")
    ok = report.total_cnps >= 1 and report.spurious_cnps == 0
    return CheckResult("cnp-generation", ok,
                       f"{report.total_cnps} CNP(s) for "
                       f"{report.total_ecn_marked} mark(s), "
                       f"{report.spurious_cnps} spurious")


def check_cnp_interval(nic: str, seed: int,
                       faults: Optional["FaultScenario"] = None,
                       configured_us: int = 8) -> CheckResult:
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=10,
        message_size=102400, mtu=1024, barrier_sync=False, tx_depth=4,
        periodic_events=(PeriodicEcnIntent(qpn=1, period=1),),
    )
    roce = RoceParameters(dcqcn_rp_enable=False,
                          min_time_between_cnps_us=configured_us)
    result = run_test(_config(nic, traffic, seed, roce=roce, faults=faults))
    if result.trace.has_gaps:
        # A CNP lost from the capture *lengthens* observed intervals,
        # so a gapped trace could false-PASS this check.
        return CheckResult.inconclusive(
            "cnp-interval-honoured",
            f"capture gaps: missing CNPs would inflate the measured "
            f"floor; coverage {result.trace.coverage:.1%}")
    interval = min_cnp_interval_ns(result.trace)
    ok = interval is not None and interval >= configured_us * 1000 * 0.9
    detail = (f"min observed {interval / 1e3:.1f} us "
              f"(configured {configured_us} us)" if interval else "no CNPs")
    return CheckResult("cnp-interval-honoured", ok, detail)


def check_ets_work_conservation(nic: str, seed: int,
                                faults: Optional["FaultScenario"] = None,
                                ) -> CheckResult:
    from ..rdma.profiles import get_profile

    line = get_profile(nic).default_bandwidth_gbps
    traffic = TrafficConfig(
        num_connections=2, rdma_verb="write", num_msgs_per_qp=8,
        message_size=256 * 1024, mtu=1024, barrier_sync=False, tx_depth=2,
        periodic_events=(PeriodicEcnIntent(qpn=1, period=50),),
        ets=EtsConfig(queues=(EtsQueueSpec(0, 50.0), EtsQueueSpec(1, 50.0)),
                      qp_to_queue={1: 0, 2: 1}),
    )
    result = run_test(_config(nic, traffic, seed, faults=faults))
    goodput = per_qp_goodput_gbps(result.traffic_log)
    ok = goodput[2] > 0.62 * line
    return CheckResult("ets-work-conservation", ok,
                       f"idle-queue bandwidth: QP1 got {goodput[2]:.1f} of "
                       f"{line:.0f} Gbps")


def check_isolation_under_read_loss(nic: str, seed: int,
                                    faults: Optional["FaultScenario"] = None,
                                    ) -> CheckResult:
    events = tuple(DataPacketEvent(qpn=q + 1, psn=5, type="drop")
                   for q in range(12))
    traffic = TrafficConfig(num_connections=24, rdma_verb="read",
                            num_msgs_per_qp=3, message_size=20480, mtu=1024,
                            barrier_sync=True, data_pkt_events=events)
    result = run_test(_config(nic, traffic, seed, faults=faults))
    parts = split_mct(result.traffic_log, list(range(1, 13)))
    innocent = parts["others"]
    ok = innocent is not None and innocent.max_ns < 1_000_000
    detail = (f"innocent max MCT {innocent.max_ns / 1e6:.2f} ms, "
              f"rx_discards={result.requester_counters['rx_discards_phy']}"
              if innocent else "no innocent flows completed")
    return CheckResult("isolation-under-read-loss", ok, detail)


def check_timeout_spec(nic: str, seed: int,
                       faults: Optional["FaultScenario"] = None) -> CheckResult:
    # Drop the last packet 3 times with timeout=10 (4.19 ms): each gap
    # must be the configured RTO and retries must not exceed budget.
    events = tuple(DataPacketEvent(qpn=1, psn=10, type="drop", iter=i)
                   for i in range(1, 4))
    traffic = TrafficConfig(num_connections=1, rdma_verb="write",
                            num_msgs_per_qp=1, message_size=10240, mtu=1024,
                            min_retransmit_timeout=10, max_retransmit_retry=7,
                            data_pkt_events=events)
    result = run_test(_config(nic, traffic, seed, faults=faults))
    meta = result.metadata[0]
    conn = (meta.requester_ip, meta.responder_ip, meta.responder_qpn)
    if not result.trace.conn_coverage_ok(conn):
        # A lost clone of any reappearance corrupts the RTO ladder.
        return CheckResult.inconclusive(
            "timeout-spec-compliance",
            f"capture gaps overlap the retransmission ladder; "
            f"coverage {result.trace.coverage:.1%}")
    last_psn = (meta.requester_ipsn + 9) & 0xFFFFFF
    appearances = [p for p in result.trace.data_packets(conn)
                   if p.psn == last_psn]
    gaps_ms = [(b.timestamp_ns - a.timestamp_ns) / 1e6
               for a, b in zip(appearances, appearances[1:])]
    expected_ms = 4096 * (2 ** 10) / 1e6
    ok = bool(gaps_ms) and all(abs(g - expected_ms) < expected_ms * 0.1
                               for g in gaps_ms)
    return CheckResult("timeout-spec-compliance", ok,
                       f"RTOs {['%.2f' % g for g in gaps_ms]} ms "
                       f"(spec {expected_ms:.2f} ms)")


def check_reorder_tolerance(nic: str, seed: int,
                            faults: Optional["FaultScenario"] = None,
                            ) -> CheckResult:
    """§7 extension event: a reordered packet must not cost a timeout."""
    traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=2,
        message_size=10240, mtu=1024,
        data_pkt_events=(DataPacketEvent(qpn=1, psn=3, type="reorder"),),
    )
    result = run_test(_config(nic, traffic, seed, faults=faults))
    done = all(m.ok for m in result.traffic_log.all_messages)
    timeouts = result.requester_counters["local_ack_timeout_err"]
    return CheckResult("reorder-tolerance", done and timeouts == 0,
                       f"{'recovered' if done else 'stuck'}, "
                       f"{timeouts} timeout(s)")


def check_rnr_flow_control(nic: str, seed: int,
                           faults: Optional["FaultScenario"] = None,
                           ) -> CheckResult:
    """RC flow control: Sends without receive WQEs must RNR-NAK, then
    complete once WQEs appear — without exploding into a retry storm.

    Drives the testbed directly (no trace involved), so measurement
    faults cannot make it inconclusive."""
    from .. import quick_config
    from ..rdma.verbs import CompletionQueue, Verb, WcStatus, WorkRequest
    from .testbed import build_testbed

    testbed = build_testbed(quick_config(nic=nic, seed=seed))
    req_cq, resp_cq = CompletionQueue(), CompletionQueue()
    req = testbed.requester.nic.create_qp(req_cq, testbed.requester.ips[0])
    resp = testbed.responder.nic.create_qp(resp_cq, testbed.responder.ips[0])
    req.connect(testbed.responder.ips[0], resp.qp_num, resp.initial_psn)
    resp.connect(testbed.requester.ips[0], req.qp_num, req.initial_psn)
    resp.auto_recv = False
    req.rnr_timer_ns = 10_000
    req.post_send(WorkRequest(verb=Verb.SEND, length=2048))
    testbed.sim.run_for(25_000)
    rnr_naks = testbed.responder.nic.counters["rnr_nak_sent"]
    resp.post_recv(1)
    testbed.sim.run()
    completions = req_cq.poll()
    ok = (rnr_naks >= 1 and completions
          and completions[0].status is WcStatus.SUCCESS)
    return CheckResult("rnr-flow-control", bool(ok),
                       f"{rnr_naks} RNR NAK(s), "
                       f"{'completed after post_recv' if ok else 'failed'}")


CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "gbn-logic": check_gbn_logic,
    "fast-retransmission": check_fast_retransmission,
    "recovery-latency": check_recovery_latency,
    "read-loss-recovery": check_read_loss_recovery,
    "tail-drop-timeout": check_tail_drop_timeout,
    "corruption-detection": check_corruption_detection,
    "counter-consistency": check_counter_consistency,
    "cnp-generation": check_cnp_generation,
    "cnp-interval-honoured": check_cnp_interval,
    "ets-work-conservation": check_ets_work_conservation,
    "isolation-under-read-loss": check_isolation_under_read_loss,
    "timeout-spec-compliance": check_timeout_spec,
    "reorder-tolerance": check_reorder_tolerance,
    "rnr-flow-control": check_rnr_flow_control,
}

#: What trace coverage each check needs before it can rule PASS/FAIL.
#: ``full-trace`` — any gap invalidates the verdict; ``connection`` —
#: only gaps overlapping the inspected connection's window matter;
#: ``event-window`` — only gaps overlapping the injected event's
#: recovery window matter; ``none`` — the check is counters/app-metrics
#: only and survives arbitrary capture loss.
COVERAGE: Dict[str, str] = {
    "gbn-logic": "connection",
    "fast-retransmission": "event-window",
    "recovery-latency": "event-window",
    "read-loss-recovery": "event-window",
    "tail-drop-timeout": "none",
    "corruption-detection": "none",
    "counter-consistency": "full-trace",
    "cnp-generation": "full-trace",
    "cnp-interval-honoured": "full-trace",
    "ets-work-conservation": "none",
    "isolation-under-read-loss": "none",
    "timeout-spec-compliance": "connection",
    "reorder-tolerance": "none",
    "rnr-flow-control": "none",
}


def _resolve_faults(faults: Optional[Union[str, "FaultScenario"]]
                    ) -> Optional["FaultScenario"]:
    if faults is None or not isinstance(faults, str):
        return faults
    from ..faults.scenarios import get_scenario

    return get_scenario(faults)


def _check_fingerprint(name: str, nic: str, seed: int,
                       scenario: Optional["FaultScenario"]) -> str:
    """Store address of one check verdict: battery inputs + NIC profile."""
    from ..rdma.profiles import PROFILES
    from ..store.fingerprint import canonicalize, fingerprint

    payload = {
        "check": name,
        "nic": nic.lower(),
        "seed": seed,
        "faults": canonicalize(scenario),
        "profile": canonicalize(PROFILES[nic.lower()]),
    }
    if coverage.active() is not None:
        # Coverage-annotated verdicts live at their own address, so a
        # coverage-off replay never serves a map-less cached verdict.
        payload["coverage"] = True
    return fingerprint("check", payload)


def run_single_check(name: str, nic: str, seed: int,
                     scenario: Optional["FaultScenario"] = None,
                     ) -> CheckResult:
    """Run one battery check, recording coverage when enabled.

    The single execution path for serial suites and pool workers alike:
    the check runs inside its own coverage scope, whose snapshot rides
    on the :class:`CheckResult`. A non-PASS verdict additionally carries
    the flight-recorder timeline for the anomaly dump.
    """
    cov = coverage.active()
    if cov is None:
        return CHECKS[name](nic, seed, scenario)
    cov.reset_recorders()
    with cov.scope() as check_map:
        result = CHECKS[name](nic, seed, scenario)
    result.coverage = check_map.snapshot()
    if result.outcome is not Outcome.PASS:
        result.flight_record = cov.flight_snapshot()
    return result


def run_conformance_suite(nic: str, seed: Optional[int] = None,
                          checks: Optional[List[str]] = None,
                          workers: int = 1,
                          faults: Optional[Union[str, "FaultScenario"]] = None,
                          store: Optional["CampaignStore"] = None,
                          ) -> Scorecard:
    """Run the standard battery (or a subset) against one NIC model.

    ``seed=None`` resolves to :data:`DEFAULT_SUITE_SEED` — the single
    source of truth for the battery's canonical seed.

    Checks are independent (each builds its own testbed from the same
    seed), so with ``workers > 1`` they execute on a
    :class:`repro.exec.ParallelRunner` process pool. The scorecard is
    identical for any worker count: results keep battery order and
    each check's verdict depends only on ``(nic, seed)``. A check
    whose *execution* fails (the check raises, or its worker is lost
    for good) reports as a failed check rather than aborting the
    battery, whatever the worker count.

    ``faults`` (a scenario name or :class:`FaultScenario`) runs every
    check under injected measurement-plane faults: trace-based checks
    whose inspected window is hit by a capture gap come back
    INCONCLUSIVE instead of a false verdict (see ``COVERAGE``).

    ``store`` (a :class:`repro.store.CampaignStore`) replays cached
    verdicts instead of re-running checks: each verdict is keyed by
    (check, nic, seed, fault scenario, NIC profile, code version), so
    a repeated battery is near-instant while any input change forces a
    re-run. Execution *failures* are never cached.
    """
    if seed is None:
        seed = DEFAULT_SUITE_SEED
    selected = checks or list(CHECKS)
    unknown = set(selected) - set(CHECKS)
    if unknown:
        raise KeyError(f"unknown checks: {sorted(unknown)}")
    scenario = _resolve_faults(faults)
    from ..exec import ParallelRunner, TaskCodec
    from ..exec.tasks import run_check_task
    from ..store.serialize import decode_check_result, encode_check_result

    fps = None
    if store is not None:
        fps = [_check_fingerprint(name, nic, seed, scenario)
               for name in selected]
    # FaultScenario is a frozen dataclass: it pickles, so ad-hoc
    # scenarios work across the pool, not just named presets.
    payloads = [{"check": name, "nic": nic, "seed": seed, "faults": scenario}
                for name in selected]
    codec = TaskCodec("check", encode_check_result, decode_check_result)
    with ParallelRunner(run_check_task, workers=workers) as runner:
        outcomes = runner.map_batch(payloads, codec, store, fps)
    card = Scorecard(nic=nic)
    card.results = [
        outcome.value if outcome.ok else CheckResult(
            name, False, f"execution failed: {outcome.error}")
        for name, outcome in zip(selected, outcomes)]
    return card
