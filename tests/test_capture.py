"""Capture frames and lazily decoded records against the clone-and-reparse oracle."""

import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from capture_oracle import make_record, mirror_clone, parse_record as eager_parse
from repro.core.trace import reconstruct_trace
from repro.dumper.records import DumpRecord, parse_record
from repro.net.capture import TRIM_BYTES, ParsedRecord, capture_frame
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

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u24 = st.integers(0, 0xFFFFFF)
u32 = st.integers(0, 0xFFFFFFFF)


@st.composite
def packets(draw):
    opcode = draw(st.sampled_from(list(Opcode)))
    packet = Packet(
        eth=EthernetHeader(dst_mac=draw(st.integers(0, 2**48 - 1)),
                           src_mac=draw(st.integers(0, 2**48 - 1)),
                           ethertype=draw(u16)),
        ip=Ipv4Header(src_ip=draw(u32), dst_ip=draw(u32), ttl=draw(u8),
                      protocol=draw(u8), dscp=draw(st.integers(0, 63)),
                      ecn=draw(st.integers(0, 3)), identification=draw(u16)),
        udp=UdpHeader(src_port=draw(u16), dst_port=draw(u16)),
        bth=BaseTransportHeader(
            opcode=opcode, solicited=draw(st.booleans()),
            migreq=draw(st.booleans()), pad_count=draw(st.integers(0, 3)),
            pkey=draw(u16), dest_qp=draw(u24), ack_request=draw(st.booleans()),
            psn=draw(u24), becn=draw(st.booleans())),
        payload_len=draw(st.integers(0, 2048)),
    )
    # Mostly the extension headers the opcode implies, sometimes any mix,
    # so the frame layout is checked apart from the opcode rules.
    mixed = draw(st.integers(0, 3)) == 0
    if draw(st.booleans()) if mixed else opcode in (
            Opcode.RDMA_WRITE_FIRST, Opcode.RDMA_WRITE_ONLY,
            Opcode.RDMA_READ_REQUEST):
        packet.reth = RdmaExtendedHeader(
            virtual_address=draw(st.integers(0, 2**64 - 1)), rkey=draw(u32),
            dma_length=draw(u32))
    if draw(st.booleans()) if mixed else opcode in (
            Opcode.ACKNOWLEDGE, Opcode.RDMA_READ_RESPONSE_FIRST,
            Opcode.RDMA_READ_RESPONSE_LAST, Opcode.RDMA_READ_RESPONSE_ONLY):
        packet.aeth = AckExtendedHeader(syndrome=draw(u8), msn=draw(u24))
    if draw(st.booleans()):
        packet.ip.total_length = packet.size - 14
        packet.udp.length = packet.ip.total_length - 20
    else:
        packet.ip.total_length = draw(u16)
        packet.udp.length = draw(u16)
    return packet


metadata = st.tuples(
    st.integers(0, 2**50),          # mirror seq (masked to 48 bits)
    st.integers(0, 2**50),          # timestamp (masked to 48 bits)
    st.integers(0, 0x1FF),          # event code (masked to 8 bits)
    u16,                            # RSS port
)


def _eager_error(record):
    try:
        eager_parse(record)
    except ValueError as exc:
        return str(exc)
    return None


class TestFrameMatchesOracle:
    @given(packet=packets(), meta=metadata)
    @settings(max_examples=300, deadline=None)
    def test_frame_bytes_equal_clone_bytes(self, packet, meta):
        seq, stamp, event, port = meta
        frame = capture_frame(packet, seq, stamp, event, port)
        oracle = make_record(mirror_clone(packet, seq, stamp, event, port),
                             0, "d", 0)
        assert frame.raw == oracle.raw
        assert frame.size == packet.size
        assert frame.rss == (packet.ip.src_ip, packet.ip.dst_ip,
                             packet.udp.src_port, port)

    @given(packet=packets(), meta=metadata)
    @settings(max_examples=300, deadline=None)
    def test_lazy_decode_equals_eager_parse(self, packet, meta):
        seq, stamp, event, port = meta
        raw = capture_frame(packet, seq, stamp, event, port).raw
        record = DumpRecord(raw, 42, "d1", 3)
        error = _eager_error(record)
        if error is not None:
            with pytest.raises(ValueError, match=re.escape(error)):
                parse_record(record)
            return
        eager = eager_parse(record)
        lazy = parse_record(record)
        # Hot fields come straight from the bytes, before any decode.
        assert lazy.mirror_seq == eager.eth.src_mac == seq & (2**48 - 1)
        assert lazy.switch_timestamp_ns == eager.eth.dst_mac
        assert lazy.event_type == eager.ip.ttl == event & 0xFF
        assert lazy.opcode is eager.bth.opcode
        assert lazy.dest_qp == eager.bth.dest_qp
        assert lazy.psn == eager.bth.psn
        assert lazy.conn_key == (eager.ip.src_ip, eager.ip.dst_ip,
                                 eager.bth.dest_qp)
        assert lazy.payload_len == eager.payload_len
        # Then every header, field by field.
        assert lazy.eth == eager.eth
        assert lazy.ip == eager.ip
        assert lazy.udp == eager.udp
        assert lazy.bth == eager.bth
        assert lazy.reth == eager.reth
        assert lazy.aeth == eager.aeth
        assert (lazy.rx_time_ns, lazy.server, lazy.core) == (42, "d1", 3)
        assert repr(lazy) == (
            f"ParsedRecord(eth={eager.eth!r}, ip={eager.ip!r}, "
            f"udp={eager.udp!r}, bth={eager.bth!r}, reth={eager.reth!r}, "
            f"aeth={eager.aeth!r}, payload_len={eager.payload_len!r}, "
            f"rx_time_ns=42, server='d1', core=3)")


def _good_raw(opcode=Opcode.SEND_ONLY, payload=64):
    packet = Packet(ip=Ipv4Header(src_ip=1, dst_ip=2),
                    udp=UdpHeader(src_port=0xC000),
                    bth=BaseTransportHeader(opcode=opcode, dest_qp=9, psn=5),
                    payload_len=payload)
    packet.ip.total_length = packet.size - 14
    return capture_frame(packet, 0, 100, EventType.NONE, 4791).raw


def _malformed():
    good = _good_raw()
    yield "short-10", good[:10]
    yield "short-53", good[:53]
    # A RETH/AETH opcode on a record that ends inside the extension.
    yield "short-reth", good[:42] + bytes([Opcode.RDMA_WRITE_ONLY]) + good[43:60]
    yield "short-aeth", good[:42] + bytes([Opcode.ACKNOWLEDGE]) + good[43:56]
    yield "ipv6-version", good[:14] + b"\x65" + good[15:]
    yield "unknown-opcode", good[:42] + b"\x55" + good[43:]


class TestMalformedRecords:
    @pytest.mark.parametrize("name,raw", list(_malformed()),
                             ids=[name for name, _ in _malformed()])
    def test_reconstruct_raises_value_error(self, name, raw):
        record = DumpRecord(raw, 0, "d", 0)
        expected = _eager_error(record)
        assert expected is not None
        good = DumpRecord(_good_raw(), 0, "d", 0)
        with pytest.raises(ValueError, match=re.escape(expected)):
            reconstruct_trace([good, record])

    def test_record_trimmed_to_trim_bytes_is_valid(self):
        raw = _good_raw(opcode=Opcode.RDMA_WRITE_MIDDLE, payload=4096)
        assert len(raw) == TRIM_BYTES
        assert parse_record(DumpRecord(raw, 0, "d", 0)).payload_len == 4096


class TestPickling:
    def _records(self):
        shapes = (Opcode.RDMA_WRITE_FIRST, Opcode.RDMA_WRITE_MIDDLE,
                  Opcode.ACKNOWLEDGE, Opcode.CNP)
        records = []
        for seq in range(8):
            opcode = shapes[seq % 4]
            packet = Packet(
                ip=Ipv4Header(src_ip=1, dst_ip=2),
                udp=UdpHeader(src_port=0xC000),
                bth=BaseTransportHeader(opcode=opcode, dest_qp=9, psn=seq),
                reth=RdmaExtendedHeader(dma_length=4096)
                if opcode == Opcode.RDMA_WRITE_FIRST else None,
                aeth=AckExtendedHeader.ack(seq)
                if opcode == Opcode.ACKNOWLEDGE else None,
                payload_len=1024)
            packet.ip.total_length = packet.size - 14
            frame = capture_frame(packet, seq, seq * 10, seq % 3, 5000 + seq)
            records.append(DumpRecord(frame.raw, seq, "d0", seq % 2))
        return records[::-1]

    def test_undecoded_trace_pickles_equal_to_decoded(self):
        undecoded = reconstruct_trace(self._records(), expected_packets=8)
        decoded = reconstruct_trace(self._records(), expected_packets=8)
        for pkt in decoded:
            pkt.record.eth  # force the header decode
        clone = pickle.loads(pickle.dumps(undecoded))
        assert clone == decoded
        assert [p.iteration for p in clone] == [p.iteration for p in decoded]
        assert [p.record.bth for p in clone] == [p.record.bth for p in decoded]

    def test_record_pickles_as_its_bytes(self):
        record = parse_record(self._records()[0])
        clone = pickle.loads(pickle.dumps(record))
        assert clone.raw == record.raw
        assert clone == record


class TestEquality:
    def test_same_headers_different_bytes_compare_equal(self):
        # A byte the model does not decode (the IPv4 checksum) differs:
        # the records still hold the same headers, so they are equal.
        raw = _good_raw()
        other = raw[:24] + b"\x12\x34" + raw[26:]
        a = ParsedRecord(raw, 1, "d", 0)
        b = ParsedRecord(other, 1, "d", 0)
        assert a == b

    def test_dumper_fields_take_part(self):
        raw = _good_raw()
        assert ParsedRecord(raw, 1, "d", 0) != ParsedRecord(raw, 2, "d", 0)
        assert ParsedRecord(raw, 1, "d", 0) != ParsedRecord(raw, 1, "e", 0)
        assert ParsedRecord(raw, 1, "d", 0) != ParsedRecord(raw, 1, "d", 1)
