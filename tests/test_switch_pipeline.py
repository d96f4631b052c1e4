"""Unit tests for the switch data plane pipeline (Fig. 6)."""

import pytest

from repro.net.headers import (
    BaseTransportHeader,
    ECN_CE,
    ECN_ECT0,
    Ipv4Header,
    Opcode,
    UdpHeader,
)
from repro.net.capture import ParsedRecord
from repro.net.link import Node, connect, gbps
from repro.net.packet import EventType, Packet
from repro.sim.rng import SimRandom
from repro.switch.controlplane import SwitchController
from repro.switch.events import EventEntry, RewriteRule
from repro.switch.pipeline import PIPELINE_STAGES, TofinoSwitch


class Host(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append(packet)


def build(sim, event_injection=True, mirroring=True, dumpers=0):
    switch = TofinoSwitch(sim, "sw", SimRandom(3),
                          event_injection=event_injection, mirroring=mirroring)
    a, b = Host(sim, "a"), Host(sim, "b")
    for host, ip in ((a, 1), (b, 2)):
        sw_port = switch.add_host_port(gbps(100))
        host_port = host.add_port(gbps(100))
        connect(sw_port, host_port, 100)
        switch.set_forwarding(ip, sw_port)
    dumper_hosts = []
    for i in range(dumpers):
        port = switch.add_dumper_port(gbps(100))
        d = Host(sim, f"d{i}")
        connect(port, d.add_port(gbps(100)), 100)
        dumper_hosts.append(d)
    return switch, a, b, dumper_hosts


def data_packet(src=1, dst=2, qpn=7, psn=5, opcode=Opcode.SEND_ONLY, migreq=True):
    return Packet(
        ip=Ipv4Header(src_ip=src, dst_ip=dst, ecn=ECN_ECT0),
        udp=UdpHeader(src_port=0xC001, dst_port=4791),
        bth=BaseTransportHeader(opcode=opcode, dest_qp=qpn, psn=psn, migreq=migreq),
        payload_len=256,
    )


class TestForwarding:
    def test_forwards_by_destination_ip(self, sim):
        switch, a, b, _ = build(sim)
        a.ports[0].send(data_packet(src=1, dst=2))
        sim.run()
        assert len(b.received) == 1
        assert len(a.received) == 0

    def test_unknown_destination_dropped(self, sim):
        switch, a, b, _ = build(sim)
        a.ports[0].send(data_packet(dst=99))
        sim.run()
        assert not b.received

    def test_pipeline_latency_applied(self, sim):
        switch, a, b, _ = build(sim)
        a.ports[0].send(data_packet())
        sim.run()
        # serialization + 100 prop + pipeline + serialization + 100 prop
        assert sim.now >= switch.pipeline_latency_ns + 200

    def test_foreign_port_forwarding_rejected(self, sim):
        switch, a, _, _ = build(sim)
        with pytest.raises(ValueError):
            switch.set_forwarding(5, a.ports[0])

    def test_latency_grows_with_enabled_features(self, sim):
        full = TofinoSwitch(sim, "f", SimRandom(1))
        bare = TofinoSwitch(sim, "b", SimRandom(1),
                            event_injection=False, mirroring=False)
        assert full.pipeline_latency_ns > bare.pipeline_latency_ns
        assert full.pipeline_latency_ns < 400  # §5: <0.4 µs

    def test_pipeline_stage_claim(self):
        assert PIPELINE_STAGES == 4


class TestEventInjection:
    def test_drop_event(self, sim):
        switch, a, b, _ = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "drop"))
        a.ports[0].send(data_packet(psn=5))
        a.ports[0].send(data_packet(psn=6))
        sim.run()
        assert [p.bth.psn for p in b.received] == [6]
        assert switch.dropped_by_event == 1

    def test_ecn_event_marks_ce(self, sim):
        switch, a, b, _ = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "ecn"))
        a.ports[0].send(data_packet(psn=5))
        sim.run()
        assert b.received[0].ip.ecn == ECN_CE
        assert switch.ecn_marked_by_event == 1

    def test_corrupt_event_invalidates_icrc(self, sim):
        switch, a, b, _ = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "corrupt"))
        a.ports[0].send(data_packet(psn=5))
        sim.run()
        assert b.received[0].icrc_ok is False

    def test_event_matches_specific_iteration_only(self, sim):
        switch, a, b, _ = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 2, "drop"))
        a.ports[0].send(data_packet(psn=5))  # ITER 1: forwarded
        sim.run()
        a.ports[0].send(data_packet(psn=5))  # same PSN -> ITER 2: dropped
        sim.run()
        assert len(b.received) == 1
        assert switch.dropped_by_event == 1

    def test_events_ignore_control_packets(self, sim):
        # Footnote 2: no events on ACK/NACK.
        switch, a, b, _ = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "drop"))
        a.ports[0].send(data_packet(psn=5, opcode=Opcode.ACKNOWLEDGE))
        sim.run()
        assert len(b.received) == 1

    def test_event_injection_disabled_ignores_table(self, sim):
        switch, a, b, _ = build(sim, event_injection=False)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "drop"))
        a.ports[0].send(data_packet(psn=5))
        sim.run()
        assert len(b.received) == 1

    def test_rewrite_rule_sets_migreq(self, sim):
        switch, a, b, _ = build(sim)
        switch.install_rewrite(RewriteRule(field_name="migreq", value=1, src_ip=1))
        a.ports[0].send(data_packet(migreq=False))
        sim.run()
        assert b.received[0].bth.migreq is True

    def test_clear_events(self, sim):
        switch, a, b, _ = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "drop"))
        switch.install_rewrite(RewriteRule(field_name="migreq", value=1))
        switch.clear_events()
        a.ports[0].send(data_packet(psn=5, migreq=False))
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].bth.migreq is False


def decode(frame):
    """The record a dumper would store for ``frame``, read back."""
    return ParsedRecord(frame.raw, 0, "d", 0)


class TestMirroring:
    def test_every_roce_packet_mirrored(self, sim):
        switch, a, b, dumpers = build(sim, dumpers=1)
        for psn in range(5):
            a.ports[0].send(data_packet(psn=psn))
        sim.run()
        assert len(dumpers[0].received) == 5
        records = [decode(f) for f in dumpers[0].received]
        assert [r.mirror_seq for r in records] == [0, 1, 2, 3, 4]
        assert [r.bth.psn for r in records] == [0, 1, 2, 3, 4]

    def test_dropped_packets_still_mirrored(self, sim):
        # §3.4: mirroring happens at ingress before the MMU drop.
        switch, a, b, dumpers = build(sim, dumpers=1)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "drop"))
        a.ports[0].send(data_packet(psn=5))
        sim.run()
        assert len(b.received) == 0
        assert len(dumpers[0].received) == 1
        assert decode(dumpers[0].received[0]).ip.ttl == EventType.DROP

    def test_mirror_metadata_event_type_none_by_default(self, sim):
        switch, a, b, dumpers = build(sim, dumpers=1)
        a.ports[0].send(data_packet())
        sim.run()
        assert decode(dumpers[0].received[0]).ip.ttl == EventType.NONE

    def test_ecn_marked_packet_dumped_with_ingress_ecn(self, sim):
        # The mirror is taken at ingress, before the event marks CE.
        switch, a, b, dumpers = build(sim, dumpers=1)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "ecn"))
        a.ports[0].send(data_packet(psn=5))
        sim.run()
        assert b.received[0].ip.ecn == ECN_CE
        record = decode(dumpers[0].received[0])
        assert record.ip.ttl == EventType.ECN
        assert record.ip.ecn == ECN_ECT0

    def test_mirroring_disabled(self, sim):
        switch, a, b, dumpers = build(sim, mirroring=False, dumpers=1)
        a.ports[0].send(data_packet())
        sim.run()
        assert not dumpers[0].received

    def test_mirror_copies_count_in_dump_counters(self, sim):
        switch, a, b, _ = build(sim, dumpers=1)
        for psn in range(3):
            a.ports[0].send(data_packet(psn=psn))
        sim.run()
        counters = switch.dump_counters()
        assert counters["mirrored_packets"] == 3
        assert counters["roce_rx_packets"] == 3


class TestControlPlane:
    def test_install_events_via_controller(self, sim):
        switch, a, b, _ = build(sim)
        controller = SwitchController(switch)
        installed = controller.install_events([
            EventEntry(1, 2, 7, 5, 1, "drop"),
            EventEntry(1, 2, 7, 6, 1, "ecn"),
        ])
        assert installed == 2
        assert controller.event_table_occupancy == 2

    def test_counters_rpc(self, sim):
        switch, a, b, _ = build(sim, dumpers=1)
        controller = SwitchController(switch)
        a.ports[0].send(data_packet())
        sim.run()
        counters = controller.dump_counters()
        assert counters["roce_rx_packets"] == 1
        assert "ports" in counters
        assert controller.mirrored_packets == 1

    def test_rpc_log_records_calls(self, sim):
        switch, *_ = build(sim)
        controller = SwitchController(switch)
        controller.install_events([])
        controller.clear_events()
        controller.dump_counters()
        assert controller.rpc_log == [
            "install_events(0)", "clear_events()", "dump_counters()",
        ]
