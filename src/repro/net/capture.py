"""Capture frames: the one byte layout of a mirrored packet, switch to trace.

The switch mirrors every RoCE packet at ingress and writes three pieces
of metadata into header fields the analysis does not otherwise need
(§3.4); it also rewrites the UDP destination port so the dumpers' RSS
spreads one flow across all cores. The dumpers keep the first 128 bytes
of each packet (§5) and the analysis parses them offline. This module
owns that layout end to end:

* :func:`capture_frame` packs the mirrored copy straight from the
  ingress packet's headers, metadata stamped in, trimmed or zero-padded
  to ``min(wire size, TRIM_BYTES)``. The resulting
  :class:`CaptureFrame` is what crosses the mirror link and what the
  dumper stores, byte for byte.
* :class:`ParsedRecord` reads a stored record back. Construction reads
  only the hot fields (metadata, connection, opcode, PSN) in one
  ``unpack_from`` and runs every validity check; the header objects
  are decoded on first access.
* :func:`restore_rss_port` undoes the port rewrite at TERM.

Frame layout (big-endian, offsets in bytes)::

    0   Ethernet  dst MAC   <- switch ingress timestamp, ns (48-bit)
    6             src MAC   <- global mirror sequence number (48-bit)
    12            ethertype
    14  IPv4      ... TTL (22) <- injected-event code ... src/dst IP (26/30)
    34  UDP       src port, dst port (36) <- RSS port, length, checksum
    42  BTH       opcode, flags, pkey, dest QP (47), A bit, PSN (51)
    54  RETH (16) or AETH (4), by opcode; then zeroed payload bytes
"""

from __future__ import annotations

from struct import Struct
from typing import NoReturn, Optional, Tuple

from .addressing import ROCEV2_UDP_PORT
from .headers import (
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
from .packet import EventType, Packet

__all__ = ["TRIM_BYTES", "CaptureFrame", "capture_frame", "ParsedRecord",
           "restore_rss_port"]

#: Bytes of each packet the dumper retains (§5).
TRIM_BYTES = 128

#: Eth + IPv4 + UDP + BTH: the part every RoCE frame has.
_BASE_LEN = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + BTH_LEN
_UDP_DST_OFFSET = ETH_HEADER_LEN + IPV4_HEADER_LEN + 2
#: IP total length minus everything but payload, for a frame without
#: extension headers.
_NON_PAYLOAD = IPV4_HEADER_LEN + UDP_HEADER_LEN + BTH_LEN + ICRC_LEN

# 48-bit MACs travel as (high 16, low 32); the BTH's 24-bit dest QP and
# PSN share a 32-bit word with the reserved byte and the A bit.
_BASE_FMT = "!HIHIH" "BBHHHBBHII" "HHHH" "BBHII"
_BASE = Struct(_BASE_FMT)
_BASE_PACK = _BASE.pack
_RETH_PACK = Struct("!QII").pack
_AETH_PACK = Struct("!I").pack
#: Hot fields only: timestamp, seq, IP version, total length, TTL,
#: src/dst IP, opcode, dest QP word, PSN word.
_HOT_UNPACK = Struct("!HIHI2xBxH4xB3xII8xB3xII").unpack_from
#: Full decode, one struct per extension header shape.
_DECODE = {0: _BASE, RETH_LEN: Struct(_BASE_FMT + "QII"),
           AETH_LEN: Struct(_BASE_FMT + "I")}

_ZEROS = bytes(TRIM_BYTES)
_RESTORED_PORT_BYTES = ROCEV2_UDP_PORT.to_bytes(2, "big")

#: Opcodes whose packets carry a RETH.
_RETH_OPCODES = frozenset({
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_WRITE_ONLY,
    Opcode.RDMA_READ_REQUEST,
})

#: Opcodes whose packets carry an AETH.
_AETH_OPCODES = frozenset({
    Opcode.ACKNOWLEDGE,
    Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})

#: Wire opcode -> (member, extension header length). A value missing
#: here is not a valid opcode.
_OPCODE_SHAPES = {
    member.value: (member, RETH_LEN if member in _RETH_OPCODES
                   else AETH_LEN if member in _AETH_OPCODES else 0)
    for member in Opcode
}

_new = object.__new__


class CaptureFrame:
    """One mirrored packet on the mirror link: its trimmed wire bytes.

    ``size`` is the original packet's full wire size, which the link
    serialises; ``rss`` is the (src IP, dst IP, src port, dst port)
    tuple the dumper's RSS hashes, with the rewritten port.
    """

    __slots__ = ("raw", "size", "rss")

    def __init__(self, raw: bytes, size: int, rss: Tuple[int, int, int, int]):
        self.raw = raw
        self.size = size
        self.rss = rss


def capture_frame(packet: Packet, seq: int, now_ns: int, event_code: int,
                  dst_port: int) -> CaptureFrame:
    """The mirrored copy of a RoCE ``packet`` as the dumper will store it.

    Headers are packed from the ingress packet with the metadata stamped
    in: ``event_code`` in the TTL, ``seq`` in the source MAC, ``now_ns``
    in the destination MAC and ``dst_port`` as the UDP destination port.
    The packet itself is not touched, so a drop, ECN mark or corruption
    applied after ingress never shows in the frame.
    """
    ip = packet.ip
    udp = packet.udp
    bth = packet.bth
    src_ip = ip.src_ip
    dst_ip = ip.dst_ip
    src_port = udp.src_port
    raw = _BASE_PACK(
        (now_ns >> 32) & 0xFFFF, now_ns & 0xFFFFFFFF,
        (seq >> 32) & 0xFFFF, seq & 0xFFFFFFFF,
        packet.eth.ethertype,
        0x45,  # version 4, IHL 5
        ((ip.dscp & 0x3F) << 2) | (ip.ecn & 0x3),
        ip.total_length, ip.identification,
        0,  # flags + fragment offset
        event_code & 0xFF, ip.protocol,
        0,  # header checksum (not modelled)
        src_ip, dst_ip,
        src_port, dst_port, udp.length,
        0,  # UDP checksum
        bth.opcode,
        (bth.solicited << 7) | (bth.migreq << 6) | ((bth.pad_count & 0x3) << 4),
        bth.pkey,
        (bth.becn << 30) | (bth.dest_qp & 0xFFFFFF),
        (bth.ack_request << 31) | (bth.psn & 0xFFFFFF),
    )
    reth = packet.reth
    if reth is not None:
        raw += _RETH_PACK(reth.virtual_address, reth.rkey, reth.dma_length)
    aeth = packet.aeth
    if aeth is not None:
        raw += _AETH_PACK((aeth.syndrome << 24) | (aeth.msn & 0xFFFFFF))
    size = packet.size
    wire_len = size if size < TRIM_BYTES else TRIM_BYTES
    have = len(raw)
    if have > wire_len:
        raw = raw[:wire_len]
    elif have < wire_len:
        raw += _ZEROS[:wire_len - have]  # zeroed payload bytes
    return CaptureFrame(raw, size, (src_ip, dst_ip, src_port, dst_port))


def restore_rss_port(raw: bytes) -> bytes:
    """``raw`` with the UDP destination port set back to 4791 (§3.4).

    Returns ``raw`` itself when it is too short to hold a UDP header.
    """
    if len(raw) < ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN:
        return raw
    return raw[:_UDP_DST_OFFSET] + _RESTORED_PORT_BYTES + raw[_UDP_DST_OFFSET + 2:]


def _raise_malformed(raw: bytes) -> NoReturn:
    """Raise the ValueError the header-by-header parse raises for ``raw``."""
    EthernetHeader.unpack(raw)
    offset = ETH_HEADER_LEN
    Ipv4Header.unpack(raw, offset)
    offset += IPV4_HEADER_LEN
    UdpHeader.unpack(raw, offset)
    offset += UDP_HEADER_LEN
    opcode = BaseTransportHeader.unpack(raw, offset).opcode
    offset += BTH_LEN
    if opcode in _RETH_OPCODES:
        RdmaExtendedHeader.unpack(raw, offset)
    elif opcode in _AETH_OPCODES:
        AckExtendedHeader.unpack(raw, offset)
    raise ValueError("malformed capture record")  # pragma: no cover


class ParsedRecord:
    """A dump record read back: mirror metadata, hot fields and headers.

    Built from the record's bytes, which it keeps. Construction reads
    the fields trace reconstruction and the trace accessors need —
    ``mirror_seq``, ``switch_timestamp_ns``, ``event_type``, ``opcode``,
    ``dest_qp``, ``psn``, ``conn_key`` and ``payload_len`` — and raises
    ValueError on a record that is not RoCEv2 (too short, not IPv4, an
    unknown opcode, a missing RETH/AETH), exactly where a full parse
    would. The header objects ``eth``, ``ip``, ``udp``, ``bth``,
    ``reth`` and ``aeth`` are decoded together on first access.

    Equality and ``repr`` are by decoded headers plus the dumper fields;
    a record pickles as its bytes and dumper fields.
    """

    __slots__ = ("raw", "rx_time_ns", "server", "core",
                 "mirror_seq", "switch_timestamp_ns", "event_type", "opcode",
                 "dest_qp", "psn", "conn_key", "payload_len",
                 "_eth", "_ip", "_udp", "_bth", "_reth", "_aeth")
    __hash__ = None

    def __init__(self, raw: bytes, rx_time_ns: int, server: str, core: int):
        if len(raw) < _BASE_LEN:
            _raise_malformed(raw)
        (ts_hi, ts_lo, seq_hi, seq_lo, version_ihl, total_length, ttl,
         src_ip, dst_ip, opcode, qp_word, psn_word) = _HOT_UNPACK(raw)
        shape = _OPCODE_SHAPES.get(opcode)
        if shape is None or version_ihl >> 4 != 4:
            _raise_malformed(raw)
        opcode, ext_len = shape
        if len(raw) < _BASE_LEN + ext_len:
            _raise_malformed(raw)
        self.raw = raw
        self.rx_time_ns = rx_time_ns
        self.server = server
        self.core = core
        self.mirror_seq = (seq_hi << 32) | seq_lo
        self.switch_timestamp_ns = (ts_hi << 32) | ts_lo
        self.event_type = ttl
        self.opcode = opcode
        self.dest_qp = dest_qp = qp_word & 0xFFFFFF
        self.psn = psn_word & 0xFFFFFF
        self.conn_key = (src_ip, dst_ip, dest_qp)
        payload_len = total_length - _NON_PAYLOAD - ext_len
        self.payload_len = payload_len if payload_len > 0 else 0
        self._eth = None  # headers not decoded yet

    # Header objects: all six are decoded on the first read of any.
    @property
    def eth(self) -> EthernetHeader:
        if self._eth is None:
            self._decode()
        return self._eth

    @property
    def ip(self) -> Ipv4Header:
        if self._eth is None:
            self._decode()
        return self._ip

    @property
    def udp(self) -> UdpHeader:
        if self._eth is None:
            self._decode()
        return self._udp

    @property
    def bth(self) -> BaseTransportHeader:
        if self._eth is None:
            self._decode()
        return self._bth

    @property
    def reth(self) -> Optional[RdmaExtendedHeader]:
        if self._eth is None:
            self._decode()
        return self._reth

    @property
    def aeth(self) -> Optional[AckExtendedHeader]:
        if self._eth is None:
            self._decode()
        return self._aeth

    def _decode(self) -> None:
        """Build all six header objects from one unpack."""
        opcode = self.opcode
        ext_len = _OPCODE_SHAPES[opcode][1]
        fields = _DECODE[ext_len].unpack_from(self.raw)
        (dst_hi, dst_lo, src_hi, src_lo, ethertype, _version_ihl, tos,
         total_length, identification, _frag, ttl, protocol, _csum,
         src_ip, dst_ip, src_port, dst_port, udp_length, _udp_csum,
         _opcode, byte1, pkey, qp_word, psn_word) = fields[:24]
        eth = _new(EthernetHeader)
        eth.dst_mac = (dst_hi << 32) | dst_lo
        eth.src_mac = (src_hi << 32) | src_lo
        eth.ethertype = ethertype
        ip = _new(Ipv4Header)
        ip.src_ip = src_ip
        ip.dst_ip = dst_ip
        ip.total_length = total_length
        ip.ttl = ttl
        ip.protocol = protocol
        ip.dscp = tos >> 2
        ip.ecn = tos & 0x3
        ip.identification = identification
        udp = _new(UdpHeader)
        udp.src_port = src_port
        udp.dst_port = dst_port
        udp.length = udp_length
        bth = _new(BaseTransportHeader)
        bth.opcode = opcode
        bth.solicited = (byte1 & 0x80) != 0
        bth.migreq = (byte1 & 0x40) != 0
        bth.pad_count = (byte1 >> 4) & 0x3
        bth.pkey = pkey
        bth.dest_qp = qp_word & 0xFFFFFF
        bth.ack_request = (psn_word & 0x80000000) != 0
        bth.psn = psn_word & 0xFFFFFF
        bth.becn = (qp_word & 0x40000000) != 0
        reth: Optional[RdmaExtendedHeader] = None
        aeth: Optional[AckExtendedHeader] = None
        if ext_len == RETH_LEN:
            reth = _new(RdmaExtendedHeader)
            reth.virtual_address, reth.rkey, reth.dma_length = fields[24:]
        elif ext_len == AETH_LEN:
            aeth = _new(AckExtendedHeader)
            word = fields[24]
            aeth.syndrome = word >> 24
            aeth.msn = word & 0xFFFFFF
        self._ip = ip
        self._udp = udp
        self._bth = bth
        self._reth = reth
        self._aeth = aeth
        self._eth = eth  # last: marks the record decoded

    def __reduce__(self) -> tuple:
        return (ParsedRecord, (self.raw, self.rx_time_ns, self.server, self.core))

    def __eq__(self, other: object) -> object:
        if other.__class__ is not ParsedRecord:
            return NotImplemented
        if (self.rx_time_ns != other.rx_time_ns or self.server != other.server
                or self.core != other.core):
            return False
        if self.raw == other.raw:
            return True
        return (self.eth == other.eth
                and self.ip == other.ip
                and self.udp == other.udp
                and self.bth == other.bth
                and self.reth == other.reth
                and self.aeth == other.aeth
                and self.payload_len == other.payload_len)

    def __repr__(self) -> str:
        return (f"ParsedRecord(eth={self.eth!r}, ip={self.ip!r}, "
                f"udp={self.udp!r}, bth={self.bth!r}, reth={self.reth!r}, "
                f"aeth={self.aeth!r}, payload_len={self.payload_len!r}, "
                f"rx_time_ns={self.rx_time_ns!r}, server={self.server!r}, "
                f"core={self.core!r})")

    @property
    def event_name(self) -> str:
        return EventType.NAMES.get(self.event_type, f"unknown({self.event_type})")

    def transport_bytes(self) -> bytes:
        """The packed IB transport headers the iCRC is computed over."""
        data = self.bth.pack()
        if self.reth is not None:
            data += self.reth.pack()
        if self.aeth is not None:
            data += self.aeth.pack()
        return data
