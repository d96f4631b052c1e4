"""The clone-and-reparse capture path: the parity oracle for capture frames.

Before :mod:`repro.net.capture`, the switch deep-copied each ingress
packet and stamped the metadata into the copy's headers, the dumper
packed the copy and trimmed it to 128 bytes, and trace reconstruction
parsed all six headers back eagerly. This module keeps that path so
``test_capture.py`` can assert that frames carry the same bytes and
that lazily decoded records equal the eager parse. Nothing in ``src/``
uses it.
"""

from dataclasses import dataclass
from typing import Optional

from repro.dumper.records import TRIM_BYTES, DumpRecord
from repro.net.headers import (
    AckExtendedHeader,
    AETH_LEN,
    BaseTransportHeader,
    BTH_LEN,
    EthernetHeader,
    ETH_HEADER_LEN,
    ICRC_LEN,
    Ipv4Header,
    IPV4_HEADER_LEN,
    Opcode,
    RdmaExtendedHeader,
    RETH_LEN,
    UDP_HEADER_LEN,
    UdpHeader,
)
from repro.net.packet import Packet

_MASK48 = 0xFFFFFFFFFFFF

_RETH_OPCODES = frozenset({
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_WRITE_ONLY,
    Opcode.RDMA_READ_REQUEST,
})

_AETH_OPCODES = frozenset({
    Opcode.ACKNOWLEDGE,
    Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})


def clone_header(header):
    """Field-by-field copy of a header (``None`` passes through).

    Every header class takes its slots, in order, as constructor
    arguments.
    """
    if header is None:
        return None
    cls = type(header)
    return cls(*(getattr(header, name) for name in cls.__slots__))


def mirror_clone(packet: Packet, seq: int, now_ns: int, event_code: int,
                 dst_port: int) -> Packet:
    """Deep copy of ``packet`` with the §3.4 metadata stamped in."""
    clone = Packet(eth=clone_header(packet.eth), ip=clone_header(packet.ip),
                   udp=clone_header(packet.udp), bth=clone_header(packet.bth),
                   reth=clone_header(packet.reth),
                   aeth=clone_header(packet.aeth),
                   payload_len=packet.payload_len)
    clone.ip.ttl = event_code & 0xFF
    clone.eth.src_mac = seq & _MASK48
    clone.eth.dst_mac = now_ns & _MASK48
    clone.udp.dst_port = dst_port
    return clone


def make_record(packet: Packet, rx_time_ns: int, server: str, core: int) -> DumpRecord:
    """Trim a mirrored packet into a dump record (first 128 wire bytes)."""
    headers = packet.pack_headers()
    wire_len = min(packet.size, TRIM_BYTES)
    if len(headers) >= wire_len:
        raw = headers[:wire_len]
    else:
        raw = headers + bytes(wire_len - len(headers))  # zeroed payload bytes
    return DumpRecord(raw, rx_time_ns, server, core)


@dataclass
class EagerRecord:
    """Every field of a record, parsed header by header."""

    eth: EthernetHeader
    ip: Ipv4Header
    udp: UdpHeader
    bth: BaseTransportHeader
    reth: Optional[RdmaExtendedHeader]
    aeth: Optional[AckExtendedHeader]
    payload_len: int
    rx_time_ns: int
    server: str
    core: int


def parse_record(record: DumpRecord) -> EagerRecord:
    """Decode a record into all its headers at once."""
    raw = record.raw
    eth = EthernetHeader.unpack(raw)
    offset = ETH_HEADER_LEN
    ip = Ipv4Header.unpack(raw, offset)
    offset += IPV4_HEADER_LEN
    udp = UdpHeader.unpack(raw, offset)
    offset += UDP_HEADER_LEN
    bth = BaseTransportHeader.unpack(raw, offset)
    offset += BTH_LEN
    reth = aeth = None
    if bth.opcode in _RETH_OPCODES:
        reth = RdmaExtendedHeader.unpack(raw, offset)
    elif bth.opcode in _AETH_OPCODES:
        aeth = AckExtendedHeader.unpack(raw, offset)
    ext_len = (RETH_LEN if reth is not None else 0) + (AETH_LEN if aeth is not None else 0)
    payload_len = max(0, ip.total_length - IPV4_HEADER_LEN - UDP_HEADER_LEN
                      - BTH_LEN - ext_len - ICRC_LEN)
    return EagerRecord(eth, ip, udp, bth, reth, aeth, payload_len,
                       record.rx_time_ns, record.server, record.core)
