"""Wire-serialization caching on Packet and the icrc_for memo."""

from repro.net.checksum import icrc_for
from repro.net.headers import (
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    UdpHeader,
)
from repro.net.packet import Packet
from repro.switch.events import RewriteRule


def make_packet(payload_len: int = 256) -> Packet:
    return Packet(
        eth=EthernetHeader(dst_mac=0x1, src_mac=0x2),
        ip=Ipv4Header(src_ip=0x0A000001, dst_ip=0x0A000002),
        udp=UdpHeader(src_port=0xC001, dst_port=4791),
        bth=BaseTransportHeader(opcode=Opcode.RDMA_WRITE_ONLY,
                                dest_qp=0x11, psn=5),
        payload_len=payload_len,
    )


class TestPackHeadersCache:
    def test_repeat_calls_hit_the_cache(self):
        packet = make_packet()
        first = packet.pack_headers()
        assert packet.pack_headers() is first  # cached object, not a copy

    def test_cached_bytes_match_fresh_serialization(self):
        packet = make_packet()
        cached = packet.pack_headers()
        assert cached == make_packet().pack_headers()

    def test_invalidate_after_header_mutation(self):
        packet = make_packet()
        before = packet.pack_headers()
        packet.ip.ecn = 3
        packet.invalidate_wire_cache()
        after = packet.pack_headers()
        assert after != before
        assert after == make_packet_with_ecn().pack_headers()

    def test_rewrite_rule_invalidates(self):
        packet = make_packet()
        before = packet.pack_headers()
        rule = RewriteRule(field_name="migreq", value=0)
        rule.apply(packet)
        assert not packet.bth.migreq
        assert packet.pack_headers() != before

    def test_cache_excluded_from_equality(self):
        warm, cold = make_packet(), make_packet()
        warm.pack_headers()
        # packet_id always differs; compare the caching-relevant parts.
        assert warm.eth == cold.eth and warm.ip == cold.ip
        assert warm._packed_headers is not None
        assert cold._packed_headers is None


def make_packet_with_ecn() -> Packet:
    packet = make_packet()
    packet.ip.ecn = 3
    return packet


class TestIcrcCache:
    def test_icrc_stable_and_cached(self):
        packet = make_packet()
        assert packet.icrc() == packet.icrc() == make_packet().icrc()

    def test_corruption_flip_needs_no_invalidation(self):
        packet = make_packet()
        clean = packet.icrc()
        packet.icrc_ok = False
        corrupted = packet.icrc()
        assert corrupted == clean ^ 0xDEADBEEF
        packet.icrc_ok = True
        assert packet.icrc() == clean

    def test_invalidate_recomputes_after_bth_mutation(self):
        packet = make_packet()
        before = packet.icrc()
        packet.bth.psn = 99
        packet.invalidate_wire_cache()
        assert packet.icrc() != before


class TestIcrcForMemo:
    def test_memoised_values_consistent(self):
        icrc_for.cache_clear()
        transport = make_packet().bth.pack()
        first = icrc_for(transport, 512)
        again = icrc_for(bytes(transport), 512)
        assert first == again
        info = icrc_for.cache_info()
        assert info.hits >= 1 and info.misses >= 1

    def test_payload_length_is_part_of_the_key(self):
        transport = make_packet().bth.pack()
        assert icrc_for(transport, 0) != icrc_for(transport, 1)
