"""The orchestrator: runs one complete Lumina test end to end (Fig. 1).

Sequence, matching §3:

1. Build the testbed from the config and apply host network settings.
2. Create QPs, exchange metadata, translate user intents into event
   table entries and install them on the switch **before** traffic
   starts (the stateless design of §3.3).
3. Run the traffic generators to completion (with a hard simulated-time
   cap to survive wedged QPs).
4. TERM the dumpers, collect all results (Table 1), reconstruct the
   packet trace and run the integrity check.

Integrity-driven recovery (§3.5): the drain before TERM is adaptive —
it runs until the mirror queues, dumper rings and any delayed-clone
backlog are empty (bounded by ``drain_deadline_ns``) instead of a fixed
2 ms. If the integrity check still fails, the run is re-executed under
the config's :class:`~repro.core.config.RetryPolicy` with an
attempt-derived RNG stream, and every attempt is recorded on the
returned :class:`~repro.core.results.TestResult`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # avoid a runtime core -> store import cycle
    from ..store.index import CampaignStore

from ..coverage import runtime as coverage
from ..switch.events import RewriteRule
from ..telemetry import runtime as telemetry
from ..telemetry.instrument import attach_testbed
from .config import TestConfig
from .intent import expand_periodic_events, translate_events
from .results import AttemptRecord, HostCounters, TestResult
from .testbed import Host, Testbed, build_testbed
from .trace import check_integrity, reconstruct_trace
from .trafficgen import TrafficSession

__all__ = ["Orchestrator", "run_test"]

#: The legacy fixed drain; the adaptive drain's first (and usually only)
#: slice, so quiescent runs stay bit-for-bit identical to before.
_BASE_DRAIN_NS = 2_000_000
#: Granularity of subsequent drain slices while queues are non-empty.
_DRAIN_SLICE_NS = 500_000


class Orchestrator:
    """Coordinates all components for a single test run."""

    def __init__(self, config: TestConfig,
                 rewrite_rules: Optional[List[RewriteRule]] = None):
        self.config = config
        self.testbed: Testbed = build_testbed(config)
        self.session = TrafficSession(self.testbed, config.traffic)
        self._extra_rewrites = list(rewrite_rules or [])

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Connect QPs and populate the event injector's tables."""
        self.session.connect_all()
        self.session.configure_ets()
        events = list(self.config.traffic.data_pkt_events)
        events.extend(expand_periodic_events(self.config.traffic,
                                          self.config.traffic.periodic_events))
        entries = translate_events(self.session.metadata, events)
        self.testbed.switch_controller.install_events(entries)
        for rule in self._extra_rewrites:
            self.testbed.switch_controller.install_rewrite(rule)

    def run(self) -> TestResult:
        """Execute the test, retrying on integrity failure (§3.5).

        Attempts are bounded by ``config.retry``; each failed attempt
        waits the policy's (simulated-time) backoff before the next one
        starts. The returned result is the *last* attempt's, with every
        attempt — successful or not — recorded on ``result.attempts``.
        """
        session = telemetry.current()
        m_retries = session.counter("run_retries")
        m_integrity_failures = session.counter("run_integrity_failures")
        policy = self.config.retry
        cov = coverage.active()
        with coverage.current().scope() as run_map:
            attempts: List[AttemptRecord] = []
            backoff = 0
            result: TestResult
            while True:
                attempt = len(attempts) + 1
                if attempt > 1:
                    m_retries.inc()
                    self.testbed = build_testbed(self.config, attempt=attempt)
                    self.session = TrafficSession(self.testbed,
                                                  self.config.traffic)
                    if backoff:
                        # Idle the fresh simulation through the backoff so the
                        # retried trace's timestamps reflect the wait.
                        self.testbed.sim.run_for(backoff)
                if cov is not None:
                    # Each attempt gets a clean flight-recorder timeline;
                    # only the final attempt's rings survive onto the result.
                    cov.reset_recorders()
                result = self._run_attempt()
                record = AttemptRecord(
                    attempt=attempt,
                    integrity=result.integrity,
                    trace_packets=len(result.trace),
                    dumper_discards=result.dumper_discards,
                    duration_ns=result.duration_ns,
                )
                attempts.append(record)
                if result.integrity.ok:
                    break
                m_integrity_failures.inc()
                if attempt >= policy.max_attempts:
                    break
                backoff = policy.backoff_for(attempt)
                record.backoff_ns = backoff
        result.attempts = attempts
        if cov is not None:
            result.coverage = run_map.snapshot()
            if len(attempts) > 1 or not result.integrity.ok:
                result.flight_record = cov.flight_snapshot()
        if telemetry.active() is not None:
            session.gauge("run_attempts").set(len(attempts))
        return result

    def _run_attempt(self) -> TestResult:
        """One build-run-collect cycle on the current testbed."""
        tel = telemetry.active()
        session = telemetry.current()
        if tel is not None:
            attach_testbed(self.testbed, tel)
        with session.span("run.setup", pid="orchestrator"):
            self.setup()
        sim = self.testbed.sim
        process = self.session.start()
        with session.span("run.traffic", pid="orchestrator"):
            sim.run(until=sim.now + self.config.max_duration_ns)
        # Drain: let in-flight control packets, mirrors and dumper rings
        # settle before TERM. The queue is usually empty already unless
        # the duration cap fired mid-transfer.
        with session.span("run.drain", pid="orchestrator"):
            self._drain(sim)
        with session.span("run.collect", pid="orchestrator"):
            records = self.testbed.dumpers.terminate_all()
            switch_counters = self.testbed.switch_controller.dump_counters()
            trace = reconstruct_trace(
                records,
                expected_packets=int(switch_counters.get("mirrored_packets", 0)),
            )
            integrity = check_integrity(trace, switch_counters)
        if not self.session.log.finished_at:
            # Duration cap hit: close the log so metrics stay meaningful.
            self.session.log.finished_at = sim.now
            self.session.log.aborted_qps = sum(
                1 for qp in self.session.requester_qps
                if qp.state.value == "error"
            )
        del process
        # sim.now sits at the duration cap (run() advances the clock);
        # the meaningful duration is when traffic actually finished.
        duration = self.session.log.finished_at or sim.now
        if tel is not None:
            probe = getattr(sim, "probe", None)
            if probe is not None:
                probe.flush()
            session.gauge("run_duration_ns").set(duration)
            session.gauge("run_trace_packets").set(len(trace))
            session.gauge("run_integrity_ok").set(int(integrity.ok))
        return TestResult(
            config=self.config,
            metadata=self.session.metadata,
            trace=trace,
            integrity=integrity,
            requester_counters=self._host_counters(self.testbed.requester,
                                                   self.config.requester.nic_type),
            responder_counters=self._host_counters(self.testbed.responder,
                                                   self.config.responder.nic_type),
            traffic_log=self.session.log,
            switch_counters=switch_counters,
            duration_ns=duration,
            dumper_discards=self.testbed.dumpers.total_discards,
            dumper_core_stats=self.testbed.dumpers.per_core_stats,
        )

    def _drain(self, sim) -> None:
        """Adaptive drain: run until the measurement plane is empty.

        The first slice equals the legacy fixed 2 ms drain, so a run
        that is already quiescent behaves exactly as before. Only when
        mirror queues, dumper rings or delayed clones are still pending
        does the drain keep going, in sub-ms slices, up to the config's
        drain deadline.
        """
        deadline = sim.now + max(self.config.drain_deadline_ns, _BASE_DRAIN_NS)
        sim.run_for(min(_BASE_DRAIN_NS, deadline - sim.now))
        while not self._measurement_quiescent() and sim.now < deadline:
            sim.run_for(min(_DRAIN_SLICE_NS, deadline - sim.now))

    def _measurement_quiescent(self) -> bool:
        """No bytes left anywhere on the mirror → dumper path."""
        testbed = self.testbed
        if any(t.port.queued_bytes for t in testbed.switch.mirror.targets):
            return False
        if testbed.dumpers.total_backlog:
            return False
        injector = testbed.fault_injector
        return injector is None or injector.quiescent

    @staticmethod
    def _host_counters(host: Host, nic_type: str) -> HostCounters:
        counters = host.nic.counters
        return HostCounters(
            host=host.name,
            nic_type=nic_type,
            canonical=counters.snapshot(),
            vendor=counters.vendor_snapshot(),
            suppressed={name: counters.suppressed(name)
                        for name in counters.stuck_counters},
        )


def run_test(config: TestConfig,
             rewrite_rules: Optional[List[RewriteRule]] = None,
             store: Optional["CampaignStore"] = None) -> TestResult:
    """Convenience one-shot: build, run and collect a test.

    With a ``store``, the config's fingerprint is probed first and a
    cached run is replayed — full trace included — instead of
    simulating again; fresh results are written back. Rewrite rules
    are extra-config state, so rewrite-rule runs bypass the store.

    With coverage enabled, the run's coverage snapshot rides on the
    result and is merged into the live session map here, for fresh and
    cached runs alike. Campaign batches fold through
    :meth:`repro.exec.ParallelRunner.map_batch` instead, whose
    in-process path runs each task under a throwaway scope, so this
    merge never counts a batched run twice.
    """
    cov = coverage.active()
    if store is not None and not rewrite_rules:
        from ..store.fingerprint import config_fingerprint
        from ..store.serialize import decode_result, encode_result

        extra = {"coverage": True} if cov is not None else None
        fp = config_fingerprint(config, kind="result", extra=extra)
        cached = store.get(fp)
        if cached is not None:
            result = decode_result(cached)
        else:
            result = Orchestrator(config).run()
            store.put(fp, "result", encode_result(result))
    else:
        result = Orchestrator(config, rewrite_rules=rewrite_rules).run()
    if cov is not None and result.coverage:
        cov.merge_snapshot(result.coverage)
    return result
