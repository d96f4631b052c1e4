"""Unit tests for switch building blocks: events, tables, ITER, mirror."""

import pytest

from repro.net.capture import CaptureFrame, ParsedRecord, capture_frame
from repro.net.headers import BaseTransportHeader, Ipv4Header, Opcode, UdpHeader
from repro.net.link import Node, connect, gbps
from repro.net.packet import EventType, Packet
from repro.sim.rng import SimRandom
from repro.switch.events import EventAction, EventEntry, RewriteRule
from repro.switch.itertrack import IterTracker
from repro.switch.mirror import MirrorBlock, MirrorConfigError
from repro.switch.tables import MatchActionTable


class TestEventEntry:
    def test_valid_entry(self):
        entry = EventEntry(src_ip=1, dst_ip=2, dst_qpn=3, psn=4, iteration=1,
                           action="drop")
        assert entry.key == (1, 2, 3, 4, 1)
        assert entry.hits == 0

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            EventEntry(1, 2, 3, 4, 1, action="teleport")

    def test_iteration_must_be_non_negative(self):
        with pytest.raises(ValueError):
            EventEntry(1, 2, 3, 4, -1, action="drop")

    def test_iteration_zero_is_the_wildcard(self):
        entry = EventEntry(1, 2, 3, 4, 0, action="drop")
        assert entry.iteration == 0

    def test_action_codes_map_to_event_types(self):
        assert EventAction.CODES["drop"] == EventType.DROP
        assert EventAction.CODES["ecn"] == EventType.ECN
        assert EventAction.CODES["corrupt"] == EventType.CORRUPT


class TestRewriteRule:
    def _packet(self, src_ip=7, migreq=False):
        return Packet(ip=Ipv4Header(src_ip=src_ip), udp=UdpHeader(),
                      bth=BaseTransportHeader(migreq=migreq))

    def test_unsupported_field_rejected(self):
        with pytest.raises(ValueError):
            RewriteRule(field_name="ttl", value=1)

    def test_wildcard_matches_any_source(self):
        rule = RewriteRule(field_name="migreq", value=1)
        assert rule.matches(self._packet(src_ip=1))
        assert rule.matches(self._packet(src_ip=2))

    def test_src_ip_filter(self):
        rule = RewriteRule(field_name="migreq", value=1, src_ip=7)
        assert rule.matches(self._packet(src_ip=7))
        assert not rule.matches(self._packet(src_ip=8))

    def test_non_roce_never_matches(self):
        rule = RewriteRule(field_name="migreq", value=1)
        assert not rule.matches(Packet())

    def test_apply_sets_migreq_and_counts(self):
        rule = RewriteRule(field_name="migreq", value=1)
        packet = self._packet(migreq=False)
        rule.apply(packet)
        assert packet.bth.migreq is True
        assert rule.hits == 1


class TestMatchActionTable:
    def _entry(self, psn=4, iteration=1, action="drop"):
        return EventEntry(1, 2, 3, psn, iteration, action)

    def test_install_and_lookup(self):
        table = MatchActionTable()
        entry = self._entry()
        table.install(entry)
        hit = table.lookup(1, 2, 3, 4, 1)
        assert hit is entry
        assert hit.hits == 1

    def test_miss_returns_none(self):
        table = MatchActionTable()
        table.install(self._entry(psn=4))
        assert table.lookup(1, 2, 3, 5, 1) is None
        assert table.lookup(1, 2, 3, 4, 2) is None

    def test_duplicate_key_rejected(self):
        table = MatchActionTable()
        table.install(self._entry())
        with pytest.raises(ValueError):
            table.install(self._entry(action="ecn"))

    def test_capacity_enforced(self):
        table = MatchActionTable(capacity=2)
        table.install(self._entry(psn=1))
        table.install(self._entry(psn=2))
        with pytest.raises(RuntimeError):
            table.install(self._entry(psn=3))

    def test_memory_accounting_is_about_1mb_for_100k_events(self):
        # §5: "approximately 1MB of on-chip memory to inject up to 100K
        # events" — entry cost must land in that ballpark.
        assert 5 <= EventEntry.ENTRY_BYTES <= 16
        table = MatchActionTable(capacity=140_000)
        table.install_all(self._entry(psn=p) for p in range(1000))
        projected = table.memory_bytes * 100
        assert 0.5e6 <= projected <= 2e6

    def test_clear(self):
        table = MatchActionTable()
        table.install(self._entry())
        table.clear()
        assert len(table) == 0
        assert table.lookup(1, 2, 3, 4, 1) is None


class TestIterTracker:
    def test_fig3_example(self):
        # Fig. 3: PSNs 1 2 3 4 | 2 3 4 | 3 4 with drops of 2 then 3.
        # Wire-visible sequence: 1 2 3 4 2 3 4 3 4 (the drops happen
        # after the switch), expected ITERs: 1 1 1 1 2 2 2 3 3.
        tracker = IterTracker()
        sequence = [1, 2, 3, 4, 2, 3, 4, 3, 4]
        iters = [tracker.update(10, 20, 5, psn) for psn in sequence]
        assert iters == [1, 1, 1, 1, 2, 2, 2, 3, 3]

    def test_equal_psn_starts_new_round(self):
        tracker = IterTracker()
        assert tracker.update(1, 2, 3, 7) == 1
        assert tracker.update(1, 2, 3, 7) == 2  # "not larger" includes equal

    def test_connections_are_independent(self):
        tracker = IterTracker()
        tracker.update(1, 2, 3, 100)
        tracker.update(1, 2, 3, 50)  # conn A now ITER 2
        assert tracker.update(9, 2, 3, 50) == 1  # conn B fresh

    def test_direction_matters(self):
        tracker = IterTracker()
        tracker.update(1, 2, 3, 100)
        assert tracker.update(2, 1, 3, 100) == 1  # reverse direction fresh

    def test_psn_wraparound_is_forward_motion(self):
        tracker = IterTracker()
        tracker.update(1, 2, 3, 0xFFFFFE)
        tracker.update(1, 2, 3, 0xFFFFFF)
        # Wrap to 0: serially later, not a retransmission.
        assert tracker.update(1, 2, 3, 0x000000) == 1

    def test_capacity_limit(self):
        tracker = IterTracker(max_connections=2)
        tracker.update(1, 2, 3, 1)
        tracker.update(4, 5, 6, 1)
        with pytest.raises(RuntimeError):
            tracker.update(7, 8, 9, 1)

    def test_peek_does_not_create_state(self):
        tracker = IterTracker()
        state = tracker.peek(1, 2, 3)
        assert state.last_psn is None
        assert len(tracker) == 0

    def test_memory_accounting(self):
        tracker = IterTracker()
        for conn in range(10):
            tracker.update(conn, 2, 3, 1)
        assert tracker.memory_bytes == 50

    def test_reset(self):
        tracker = IterTracker()
        tracker.update(1, 2, 3, 5)
        tracker.reset()
        assert len(tracker) == 0


class _PortSink(Node):
    def __init__(self, sim, name="dump"):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append(packet)


def _roce(src_port=0xC000):
    return Packet(ip=Ipv4Header(src_ip=1, dst_ip=2, ttl=64),
                  udp=UdpHeader(src_port=src_port, dst_port=4791),
                  bth=BaseTransportHeader(opcode=Opcode.SEND_ONLY, psn=5),
                  payload_len=64)


def decode(frame):
    """The record a dumper would store for ``frame``, read back."""
    return ParsedRecord(frame.raw, 0, "d", 0)


class TestMirrorBlock:
    def _block_with_targets(self, sim, n=2, weights=None):
        block = MirrorBlock(SimRandom(1))
        switch_node = _PortSink(sim, "sw")
        sinks = []
        for i in range(n):
            out = switch_node.add_port(gbps(100))
            sink = _PortSink(sim, f"d{i}")
            connect(out, sink.add_port(gbps(100)), 0)
            block.add_target(out, weight=(weights[i] if weights else 1))
            sinks.append(sink)
        return block, sinks

    def test_no_targets_returns_none(self, sim):
        block = MirrorBlock(SimRandom(1))
        assert block.mirror(_roce(), 100, EventType.NONE) is None

    def test_metadata_embedded(self, sim):
        block, _ = self._block_with_targets(sim, 1)
        frame = block.mirror(_roce(), now_ns=777, event_code=EventType.DROP)
        assert isinstance(frame, CaptureFrame)
        record = decode(frame)
        assert record.ip.ttl == EventType.DROP
        assert record.eth.src_mac == 0      # first mirror sequence number
        assert record.eth.dst_mac == 777    # timestamp

    def test_sequence_increments(self, sim):
        block, _ = self._block_with_targets(sim, 1)
        frames = [block.mirror(_roce(), i, EventType.NONE) for i in range(5)]
        assert [decode(f).eth.src_mac for f in frames] == [0, 1, 2, 3, 4]
        assert block.mirrored_packets == 5

    def test_original_packet_untouched(self, sim):
        block, _ = self._block_with_targets(sim, 1)
        packet = _roce()
        original_ttl = packet.ip.ttl
        block.mirror(packet, 1, EventType.ECN)
        assert packet.ip.ttl == original_ttl
        assert packet.udp.dst_port == 4791
        assert packet.eth.src_mac == 0 and packet.eth.dst_mac == 0

    def test_udp_port_randomised_for_rss(self, sim):
        block, _ = self._block_with_targets(sim, 1)
        ports = {decode(block.mirror(_roce(), i, EventType.NONE)).udp.dst_port
                 for i in range(50)}
        assert len(ports) > 10
        assert all(p != 4791 for p in ports)

    def test_udp_port_randomisation_can_be_disabled(self, sim):
        block = MirrorBlock(SimRandom(1), randomize_udp_port=False)
        node = _PortSink(sim, "sw")
        out = node.add_port(gbps(100))
        sink = _PortSink(sim, "d")
        connect(out, sink.add_port(gbps(100)), 0)
        block.add_target(out)
        frame = block.mirror(_roce(), 1, EventType.NONE)
        assert decode(frame).udp.dst_port == 4791

    def test_corrupted_original_mirrored_intact(self, sim):
        # §3.4: the mirror is taken at ingress before the event acts.
        block, _ = self._block_with_targets(sim, 1)
        packet = _roce()
        packet.icrc_ok = False  # pretend corruption already flagged
        frame = block.mirror(packet, 1, EventType.CORRUPT)
        intact = capture_frame(_roce(), 0, 1, EventType.CORRUPT,
                               decode(frame).udp.dst_port)
        assert frame.raw == intact.raw

    def test_weighted_round_robin_distribution(self, sim):
        block, sinks = self._block_with_targets(sim, 2, weights=[3, 1])
        for i in range(400):
            block.mirror(_roce(), i, EventType.NONE)
        sim.run()
        assert len(sinks[0].received) == 300
        assert len(sinks[1].received) == 100

    def test_equal_weights_alternate(self, sim):
        block, sinks = self._block_with_targets(sim, 2)
        for i in range(10):
            block.mirror(_roce(), i, EventType.NONE)
        sim.run()
        assert len(sinks[0].received) == 5
        assert len(sinks[1].received) == 5

    def test_invalid_weight_rejected(self, sim):
        block, _ = self._block_with_targets(sim, 1)
        node = _PortSink(sim, "x")
        with pytest.raises(ValueError):
            block.add_target(node.add_port(gbps(10)), weight=0)

    def test_reset(self, sim):
        block, _ = self._block_with_targets(sim, 1)
        block.mirror(_roce(), 1, EventType.NONE)
        block.reset()
        assert block.mirror_seq == 0
        assert block.mirrored_packets == 0

    def test_pick_target_without_targets_raises(self, sim):
        # mirror() returns None gracefully, but the selector itself must
        # fail loudly (it used to be a bare assert, stripped by -O).
        block = MirrorBlock(SimRandom(1))
        with pytest.raises(MirrorConfigError, match="no dumper targets"):
            block._pick_target()

    def test_mirror_config_error_is_runtime_error(self, sim):
        assert issubclass(MirrorConfigError, RuntimeError)
