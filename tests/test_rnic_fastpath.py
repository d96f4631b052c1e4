"""Differential tests for the RNIC fast path.

Three per-packet shortcuts in ``repro.rdma`` are checked against the
slower code they replace:

* ``QueuePair._packet`` (one header template per QP, ``__new__`` plus
  slot stores, lengths set in one pass) against the construct-then-patch
  path kept in ``qp_oracle.py``, for every opcode a QP emits;
* the lone-class ETS pick the NIC uses when only one work-conserving
  weighted class exists, against ``EtsScheduler.select``;
* the hot counters kept in plain slots on ``NicCounters`` against
  per-call ``incr``, with each hot counter declared stuck in turn.
"""

import pytest
from hypothesis import given, settings, strategies as st

import qp_oracle
from repro import api, quick_config
from repro.core.config import HostConfig, TestConfig, TrafficConfig
from repro.core.testbed import build_testbed
from repro.net.headers import Opcode
from repro.rdma.counters import CANONICAL_COUNTERS, HOT_COUNTERS, NicCounters
from repro.rdma.ets import EtsQueueConfig, EtsScheduler
from repro.rdma.nic import RdmaNic
from repro.rdma.profiles import PROFILES
from repro.rdma.verbs import CompletionQueue, Verb, WorkRequest
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom


# ----------------------------------------------------------------------
# Packet builder vs the construct-then-patch oracle
# ----------------------------------------------------------------------
def _connected_pair(nic):
    testbed = build_testbed(quick_config(nic=nic, mtu=1024, seed=11))
    req_nic = testbed.requester.nic
    resp_nic = testbed.responder.nic
    req = req_nic.create_qp(CompletionQueue(), testbed.requester.ips[0])
    resp = resp_nic.create_qp(CompletionQueue(), testbed.responder.ips[0])
    req.connect(testbed.responder.ips[0], resp.qp_num, resp.initial_psn)
    resp.connect(testbed.requester.ips[0], req.qp_num, req.initial_psn)
    return req, resp


def _assert_same_packets(built, expected):
    assert len(built) == len(expected)
    for got, want in zip(built, expected):
        want.packet_id = got.packet_id  # ids come from one global counter
        assert got == want
        assert got.pack_headers() == want.pack_headers()
        assert got.size == want.size
        assert got.icrc() == want.icrc()
        # A switch ECN mark or rewrite recomputes the size from headers.
        got.invalidate_wire_cache()
        want.invalidate_wire_cache()
        assert got.size == want.size


def _drain(qp):
    packets = list(qp.pending_tx)
    qp.pending_tx.clear()
    return packets


# cx5 sets MigReq=1 on its packets, e810 MigReq=0.
@pytest.mark.parametrize("nic", ["cx5", "e810"])
def test_builder_matches_oracle_for_every_opcode(nic):
    req, resp = _connected_pair(nic)
    built, expected = [], []

    def post(wr):
        first_psn = req.next_psn
        req.post_send(wr)
        built.extend(_drain(req))
        if wr.verb is Verb.READ:
            expected.append(qp_oracle.read_request(
                req, first_psn, wr.remote_address, wr.remote_rkey, wr.length))
        else:
            expected.extend(qp_oracle.message_packets(req, wr, first_psn))

    post(WorkRequest(Verb.SEND, 3 * 1024 + 100))       # first/middle/last
    post(WorkRequest(Verb.SEND, 10))                    # only
    post(WorkRequest(Verb.WRITE, 4 * 1024, remote_address=0x7F00_0000_1000,
                     remote_rkey=0x1234))               # RETH on first
    post(WorkRequest(Verb.WRITE, 512, remote_address=0x2000,
                     remote_rkey=7))                    # only, with RETH
    post(WorkRequest(Verb.READ, 3 * 1024, remote_address=0x9000,
                     remote_rkey=9))                    # read request

    resp.msn = 5
    for length in (3 * 1024 + 1, 700):                  # first/middle/last, only
        first_psn = resp.epsn
        resp._serve_read(first_psn, length, retransmit=False)
        built.extend(_drain(resp))
        expected.extend(qp_oracle.read_responses(resp, first_psn, length))

    sent = []
    resp.nic.send_control = sent.append
    resp._emit_ack(0x123, False)
    resp._emit_ack(0xFFFFFF, True)
    resp._emit_rnr_nak(0x42)
    built.extend(sent)
    expected += [qp_oracle.ack(resp, 0x123), qp_oracle.ack(resp, 0xFFFFFF, True),
                 qp_oracle.rnr_nak(resp, 0x42)]

    built.append(resp.build_cnp())
    expected.append(qp_oracle.cnp(resp))

    _assert_same_packets(built, expected)
    assert {p.bth.opcode for p in built} == set(Opcode)
    syndromes = {p.aeth.syndrome for p in built
                 if p.bth.opcode == Opcode.ACKNOWLEDGE}
    assert len(syndromes) == 3  # ACK, NAK and RNR NAK


def test_packets_share_no_header_objects():
    # The switch marks ECN and rewrites MigReq in place, so a mutation
    # of one packet must never reach another.
    req, _ = _connected_pair("cx5")
    req.post_send(WorkRequest(Verb.WRITE, 2 * 1024, remote_address=1,
                              remote_rkey=2))
    first, second = _drain(req)
    for name in ("eth", "ip", "udp", "bth"):
        assert getattr(first, name) is not getattr(second, name)


# ----------------------------------------------------------------------
# Lone-class ETS pick vs EtsScheduler.select
# ----------------------------------------------------------------------
class _StubQp:
    def __init__(self, backlog, ready_at):
        self.backlog = backlog
        self.ready_at = ready_at
        self.ets_queue_index = 0

    def has_pending_tx(self):
        return self.backlog > 0

    @property
    def pacing_ready_at(self):
        return self.ready_at


def _reference_pick(qps, rr_next, now):
    """Round-robin with pacing, written out: ``(qp, next_time, rr_next)``."""
    earliest = None
    for offset in range(len(qps)):
        qp = qps[(rr_next + offset) % len(qps)]
        if not qp.has_pending_tx():
            continue
        if qp.pacing_ready_at <= now:
            return qp, None, (rr_next + offset + 1) % len(qps)
        earliest = min(earliest, qp.pacing_ready_at) \
            if earliest is not None else qp.pacing_ready_at
    return None, earliest, rr_next


@settings(max_examples=200, deadline=None)
@given(qps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3_000)),
                    max_size=8),
       rr_next=st.integers(0, 9),
       nows=st.lists(st.integers(0, 3_000), min_size=1, max_size=12))
def test_lone_class_pick_matches_select(qps, rr_next, nows):
    stubs = [_StubQp(backlog, ready_at) for backlog, ready_at in qps]
    line = 100_000_000_000
    via_select, via_lone = EtsScheduler(line), EtsScheduler(line)
    for sched in (via_select, via_lone):
        for qp in stubs:
            sched.assign(qp, 0)
        sched.lone_class._rr_next = rr_next
    reference_rr = rr_next
    for now in sorted(nows):
        ref_qp, ref_next, reference_rr = _reference_pick(stubs, reference_rr,
                                                         now)
        expected = via_select.select(now)
        got = via_lone.lone_class.pick_qp(now)
        assert got == expected == (ref_qp, ref_next)
        assert via_lone.lone_class._rr_next == \
            via_select.lone_class._rr_next == reference_rr
        qp, _ = got
        if qp is not None:
            qp.backlog -= 1
            via_select.account(qp, now, 1_000)
            via_lone.account(qp, now, 1_000)


@pytest.mark.parametrize("configs, work_conserving, lone", [
    ([EtsQueueConfig(0, 1.0)], True, True),
    ([EtsQueueConfig(3, 0.4)], True, True),
    ([EtsQueueConfig(0, 1.0)], False, False),          # CX6 Dx shaper
    ([EtsQueueConfig(0, strict_priority=True)], True, False),
    ([EtsQueueConfig(0, 0.5), EtsQueueConfig(1, 0.5)], True, False),
    ([EtsQueueConfig(0, strict_priority=True), EtsQueueConfig(1, 1.0)],
     True, False),
])
def test_lone_class_only_for_one_work_conserving_weighted_class(
        configs, work_conserving, lone):
    sched = EtsScheduler(100_000_000_000, work_conserving=work_conserving)
    sched.configure(configs)
    assert (sched.lone_class is not None) == lone


def test_nic_bypasses_ets_except_on_the_non_work_conserving_shaper():
    for name, profile in PROFILES.items():
        nic = RdmaNic(Simulator(), "h", profile, SimRandom(1))
        assert (nic.ets.lone_class is None) == \
            (not profile.ets_work_conserving), name


# ----------------------------------------------------------------------
# Hot counters in slots vs per-call incr
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stuck", [None, *HOT_COUNTERS])
@settings(max_examples=25, deadline=None)
@given(bumps=st.lists(st.tuples(st.sampled_from(HOT_COUNTERS),
                                st.integers(0, 9_000)), max_size=30),
       split=st.integers(0, 30))
def test_hot_counter_slots_match_incr(stuck, bumps, split):
    stuck_set = frozenset({stuck, "cnp_sent"} - {None})
    names = {"tx_packets": "vport_tx_packets", "rx_bytes": "rxBytes"}
    slots = NicCounters(names, stuck_set)
    calls = NicCounters(names, stuck_set)
    earlier_slots = earlier_calls = None
    for i, (name, amount) in enumerate(bumps):
        if i == split:
            earlier_slots, earlier_calls = slots.snapshot(), calls.snapshot()
        setattr(slots, name, getattr(slots, name) + amount)
        calls.incr(name, amount)
        slots.incr("cnp_sent")
        calls.incr("cnp_sent")
    assert slots.snapshot() == calls.snapshot()
    assert list(slots.snapshot()) == list(CANONICAL_COUNTERS)
    assert slots.vendor_snapshot() == calls.vendor_snapshot()
    if earlier_slots is not None:
        assert earlier_slots == earlier_calls
        assert slots.delta(earlier_slots) == calls.delta(earlier_calls)
    for name in CANONICAL_COUNTERS:
        assert slots[name] == calls[name]
        assert slots.get(name) == calls.get(name)
        assert slots.suppressed(name) == calls.suppressed(name)
    assert slots.get("bogus", 7) == calls.get("bogus", 7) == 7
    if stuck is not None:
        assert slots[stuck] == 0
        assert slots.suppressed(stuck) == sum(
            amount for name, amount in bumps if name == stuck)


# ----------------------------------------------------------------------
# Known defect, pinned
# ----------------------------------------------------------------------
@pytest.mark.xfail(strict=True, reason=(
    "Read requester never advances snd_una on Read responses, so "
    "_outstanding() stays true after the reads complete and every QP "
    "times out into ERROR (local_ack_timeout_err 64, qp_retry_exceeded 8)"))
def test_clean_read_run_has_no_timeouts():
    # perfbench/inputs.bulk_config(1, 5) without its drop and ECN events:
    # eight cx5 QPs, one 256 KB Read each.
    config = TestConfig(
        requester=HostConfig(nic_type="cx5", ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type="cx5", ip_list=("10.0.0.2/24",)),
        traffic=TrafficConfig(num_connections=8, rdma_verb="read",
                              num_msgs_per_qp=1, message_size=262144,
                              mtu=1024),
        seed=1565135819)
    assert not config.traffic.data_pkt_events
    counters = api.run_test(config).requester_counters.canonical
    assert counters["local_ack_timeout_err"] == 0
    assert counters["qp_retry_exceeded"] == 0

