"""Unit tests for the Packet object: sizes, mirror metadata, iCRC."""

import pytest

from repro.net.capture import ParsedRecord, capture_frame
from repro.net.checksum import crc32_ib, icrc_for
from repro.net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
)
from repro.net.packet import EventType, Packet


def roce_packet(payload_len=1024, opcode=Opcode.RDMA_WRITE_ONLY,
                with_reth=True) -> Packet:
    return Packet(
        eth=EthernetHeader(dst_mac=2, src_mac=1),
        ip=Ipv4Header(src_ip=0x0A000001, dst_ip=0x0A000002),
        udp=UdpHeader(src_port=0xC123, dst_port=4791),
        bth=BaseTransportHeader(opcode=opcode, dest_qp=0x1234, psn=100),
        reth=RdmaExtendedHeader(dma_length=payload_len) if with_reth else None,
        payload_len=payload_len,
    )


class TestSizes:
    def test_l2_only_size(self):
        packet = Packet(payload_len=50)
        assert packet.size == 14 + 50

    def test_full_roce_size(self):
        # Eth(14)+IP(20)+UDP(8)+BTH(12)+RETH(16)+payload+iCRC(4)
        packet = roce_packet(payload_len=1024)
        assert packet.size == 14 + 20 + 8 + 12 + 16 + 1024 + 4

    def test_ack_packet_size(self):
        packet = Packet(
            ip=Ipv4Header(), udp=UdpHeader(),
            bth=BaseTransportHeader(opcode=Opcode.ACKNOWLEDGE),
            aeth=AckExtendedHeader.ack(),
        )
        assert packet.size == 14 + 20 + 8 + 12 + 4 + 4

    def test_header_len_excludes_payload_and_crc(self):
        packet = roce_packet(payload_len=500)
        assert packet.header_len == 14 + 20 + 8 + 12 + 16

    def test_pack_headers_matches_header_len(self):
        packet = roce_packet()
        assert len(packet.pack_headers()) == packet.header_len


class TestProperties:
    def test_is_roce(self):
        assert roce_packet().is_roce
        assert not Packet().is_roce

    def test_accessors(self):
        packet = roce_packet()
        assert packet.opcode == Opcode.RDMA_WRITE_ONLY
        assert packet.psn == 100
        assert packet.dest_qp == 0x1234

    def test_accessors_none_without_bth(self):
        packet = Packet()
        assert packet.opcode is None
        assert packet.psn is None


class TestIcrc:
    def test_icrc_stable_for_same_packet(self):
        assert roce_packet().icrc() == roce_packet().icrc()

    def test_corruption_changes_icrc(self):
        good = roce_packet()
        bad = roce_packet()
        bad.icrc_ok = False
        assert good.icrc() != bad.icrc()

    def test_icrc_depends_on_transport_headers(self):
        a = roce_packet()
        b = roce_packet()
        b.bth.psn = 101
        assert a.icrc() != b.icrc()

    def test_crc32_known_properties(self):
        assert crc32_ib(b"") == 0
        assert crc32_ib(b"abc") != crc32_ib(b"abd")

    def test_icrc_payload_length_matters(self):
        assert icrc_for(b"\x01\x02", 10) != icrc_for(b"\x01\x02", 11)


class TestMirrorMetadata:
    def test_metadata_accessors_read_rewritten_fields(self):
        # The switch stamps the metadata into the mirrored frame's TTL
        # and MACs; the record accessors read it back from those fields.
        frame = capture_frame(roce_packet(), 12345, 987654321,
                              EventType.DROP, 4791)
        record = ParsedRecord(frame.raw, 0, "d", 0)
        assert record.ip.ttl == record.event_type == EventType.DROP
        assert record.eth.src_mac == record.mirror_seq == 12345
        assert record.eth.dst_mac == record.switch_timestamp_ns == 987654321

    def test_event_type_names(self):
        assert EventType.NAMES[EventType.NONE] == "none"
        assert EventType.NAMES[EventType.DROP] == "drop"
        assert EventType.NAMES[EventType.ECN] == "ecn"
        assert EventType.NAMES[EventType.CORRUPT] == "corrupt"

    def test_mirror_event_type_requires_ip(self):
        # A record that ends before the IPv4 header carries no metadata.
        frame = capture_frame(roce_packet(), 1, 2, EventType.DROP, 4791)
        with pytest.raises(ValueError, match="IPv4"):
            ParsedRecord(frame.raw[:20], 0, "d", 0)
