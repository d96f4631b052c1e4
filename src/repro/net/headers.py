"""Byte-accurate protocol headers for RoCEv2 traffic.

Implements the header stack Lumina observes on the wire:

    Ethernet / IPv4 / UDP / IB BTH / [RETH | AETH] / payload / iCRC

Every header packs to and parses from real wire bytes, which is what the
traffic-dumper records store (trimmed to the first 128 bytes, §5) and
what the analyzers parse back. The switch's metadata-embedding trick
(§3.4) — rewriting TTL, source MAC and destination MAC of mirrored
packets — therefore works on genuine header fields here too.

Opcodes and field layouts follow the InfiniBand Architecture
Specification (RC transport) and the RoCEv2 annex; only the fields
Lumina needs are modelled, but the byte offsets and sizes are faithful.

Hot-path note: each layout is compiled once into a module-level
:class:`struct.Struct` codec and every header class is slotted — a
simulated run packs hundreds of thousands of headers, so the per-call
format-string parse and per-instance ``__dict__`` both matter. The
classes keep dataclass-equivalent semantics (field order, defaults,
``__eq__`` by value with ``NotImplemented`` across types, unhashable,
``repr`` listing every field) so call sites and pickled artifacts are
unaffected.
"""

from __future__ import annotations

from enum import IntEnum
from struct import Struct

__all__ = [
    "Opcode",
    "SEND_OPCODES",
    "WRITE_OPCODES",
    "READ_RESPONSE_OPCODES",
    "DATA_OPCODES",
    "FIRST_OPCODES",
    "LAST_OPCODES",
    "AethSyndrome",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "BaseTransportHeader",
    "RdmaExtendedHeader",
    "AckExtendedHeader",
    "ETH_HEADER_LEN",
    "IPV4_HEADER_LEN",
    "UDP_HEADER_LEN",
    "BTH_LEN",
    "RETH_LEN",
    "AETH_LEN",
    "ICRC_LEN",
    "ECN_NOT_ECT",
    "ECN_ECT0",
    "ECN_ECT1",
    "ECN_CE",
    "ETHERTYPE_IPV4",
    "IPPROTO_UDP",
]

ETH_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
BTH_LEN = 12
RETH_LEN = 16
AETH_LEN = 4
ICRC_LEN = 4

ETHERTYPE_IPV4 = 0x0800
IPPROTO_UDP = 17

# IP ECN codepoints (RFC 3168).
ECN_NOT_ECT = 0b00
ECN_ECT1 = 0b01
ECN_ECT0 = 0b10
ECN_CE = 0b11

# Precompiled wire codecs — one Struct per layout, compiled at import.
_ETH = Struct("!6s6sH")
_IPV4 = Struct("!BBHHHBBHII")
_UDP = Struct("!HHHH")
_BTH = Struct("!BBHB3sB3s")
_RETH = Struct("!QII")
_AETH = Struct("!B3s")

_ETH_PACK = _ETH.pack
_IPV4_PACK = _IPV4.pack
_UDP_PACK = _UDP.pack
_BTH_PACK = _BTH.pack
_RETH_PACK = _RETH.pack
_AETH_PACK = _AETH.pack


class Opcode(IntEnum):
    """IB RC transport opcodes (subset used by Lumina's traffic)."""

    SEND_FIRST = 0x00
    SEND_MIDDLE = 0x01
    SEND_LAST = 0x02
    SEND_ONLY = 0x04
    RDMA_WRITE_FIRST = 0x06
    RDMA_WRITE_MIDDLE = 0x07
    RDMA_WRITE_LAST = 0x08
    RDMA_WRITE_ONLY = 0x0A
    RDMA_READ_REQUEST = 0x0C
    RDMA_READ_RESPONSE_FIRST = 0x0D
    RDMA_READ_RESPONSE_MIDDLE = 0x0E
    RDMA_READ_RESPONSE_LAST = 0x0F
    RDMA_READ_RESPONSE_ONLY = 0x10
    ACKNOWLEDGE = 0x11
    # RoCEv2 congestion notification packet (CNP) opcode.
    CNP = 0x81

    @property
    def is_data(self) -> bool:
        """True for packets that carry message payload toward the receiver.

        Lumina's event injector only targets data packets (§3.3): for
        Read that is the read *response* stream, for Write/Send the
        request stream. Read requests, ACK/NAK and CNPs are control.
        """
        return self in DATA_OPCODES

    @property
    def is_read_response(self) -> bool:
        return self in READ_RESPONSE_OPCODES

    @property
    def is_send(self) -> bool:
        return self in SEND_OPCODES

    @property
    def is_write(self) -> bool:
        return self in WRITE_OPCODES

    @property
    def is_first(self) -> bool:
        return self in FIRST_OPCODES

    @property
    def is_last(self) -> bool:
        """True if this packet completes a message (LAST or ONLY)."""
        return self in LAST_OPCODES


#: Wire value -> member, for the BTH decode hot path. ``Opcode(x)``
#: goes through EnumMeta.__call__, which costs several times a dict hit.
_OPCODE_BY_VALUE = {member.value: member for member in Opcode}

# Opcode classes as frozensets, built once: the ``is_*`` properties and
# the RNIC's per-packet checks test membership instead of building a
# tuple of enum members (each ``Opcode.X`` is an attribute lookup) per call.
SEND_OPCODES = frozenset({
    Opcode.SEND_FIRST,
    Opcode.SEND_MIDDLE,
    Opcode.SEND_LAST,
    Opcode.SEND_ONLY,
})
WRITE_OPCODES = frozenset({
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_WRITE_MIDDLE,
    Opcode.RDMA_WRITE_LAST,
    Opcode.RDMA_WRITE_ONLY,
})
READ_RESPONSE_OPCODES = frozenset({
    Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_MIDDLE,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})
DATA_OPCODES = SEND_OPCODES | WRITE_OPCODES | READ_RESPONSE_OPCODES
FIRST_OPCODES = frozenset({
    Opcode.SEND_FIRST,
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_READ_RESPONSE_FIRST,
})
LAST_OPCODES = frozenset({
    Opcode.SEND_LAST,
    Opcode.SEND_ONLY,
    Opcode.RDMA_WRITE_LAST,
    Opcode.RDMA_WRITE_ONLY,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})


class AethSyndrome(IntEnum):
    """AETH syndrome high bits: ACK vs NAK classes (IB spec 9.7.5.2.4)."""

    ACK = 0b000
    RNR_NAK = 0b001
    NAK = 0b011

    @staticmethod
    def encode(kind: "AethSyndrome", code: int = 0) -> int:
        """Build the 8-bit syndrome field from class + 5-bit code/credit."""
        if not 0 <= code <= 0x1F:
            raise ValueError(f"syndrome code out of range: {code}")
        return (int(kind) << 5) | code

    @staticmethod
    def decode(syndrome: int) -> tuple:
        """Split the 8-bit syndrome into (class, code)."""
        return AethSyndrome((syndrome >> 5) & 0x7), syndrome & 0x1F


#: NAK code for a PSN sequence error (the Go-back-N NAK).
NAK_PSN_SEQUENCE_ERROR = 0


class EthernetHeader:
    """Ethernet II header. MACs are 48-bit integers."""

    __slots__ = ("dst_mac", "src_mac", "ethertype")
    __hash__ = None  # value-equal like the dataclass it replaced

    def __init__(self, dst_mac: int = 0, src_mac: int = 0,
                 ethertype: int = ETHERTYPE_IPV4):
        self.dst_mac = dst_mac
        self.src_mac = src_mac
        self.ethertype = ethertype

    def pack(self) -> bytes:
        return _ETH_PACK(
            self.dst_mac.to_bytes(6, "big"),
            self.src_mac.to_bytes(6, "big"),
            self.ethertype,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "EthernetHeader":
        if len(data) - offset < ETH_HEADER_LEN:
            raise ValueError("truncated Ethernet header")
        dst, src, ethertype = _ETH.unpack_from(data, offset)
        return cls(int.from_bytes(dst, "big"), int.from_bytes(src, "big"),
                   ethertype)

    def __eq__(self, other: object) -> object:
        if other.__class__ is not EthernetHeader:
            return NotImplemented
        return (self.dst_mac == other.dst_mac
                and self.src_mac == other.src_mac
                and self.ethertype == other.ethertype)

    def __repr__(self) -> str:
        return (f"EthernetHeader(dst_mac={self.dst_mac!r}, "
                f"src_mac={self.src_mac!r}, ethertype={self.ethertype!r})")


class Ipv4Header:
    """IPv4 header (no options). ``total_length`` covers IP header + payload."""

    __slots__ = ("src_ip", "dst_ip", "total_length", "ttl", "protocol",
                 "dscp", "ecn", "identification")
    __hash__ = None

    def __init__(self, src_ip: int = 0, dst_ip: int = 0,
                 total_length: int = IPV4_HEADER_LEN, ttl: int = 64,
                 protocol: int = IPPROTO_UDP, dscp: int = 0,
                 ecn: int = ECN_ECT0, identification: int = 0):
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.total_length = total_length
        self.ttl = ttl
        self.protocol = protocol
        self.dscp = dscp
        self.ecn = ecn
        self.identification = identification

    def pack(self) -> bytes:
        return _IPV4_PACK(
            (4 << 4) | 5,  # version + IHL
            ((self.dscp & 0x3F) << 2) | (self.ecn & 0x3),
            self.total_length,
            self.identification,
            0,  # flags + fragment offset
            self.ttl,
            self.protocol,
            0,  # header checksum (not modelled; iCRC covers integrity)
            self.src_ip,
            self.dst_ip,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "Ipv4Header":
        if len(data) - offset < IPV4_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (version_ihl, tos, total_length, identification, _frag, ttl, protocol,
         _csum, src_ip, dst_ip) = _IPV4.unpack_from(data, offset)
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        return cls(src_ip, dst_ip, total_length, ttl, protocol,
                   tos >> 2, tos & 0x3, identification)

    def __eq__(self, other: object) -> object:
        if other.__class__ is not Ipv4Header:
            return NotImplemented
        return (self.src_ip == other.src_ip
                and self.dst_ip == other.dst_ip
                and self.total_length == other.total_length
                and self.ttl == other.ttl
                and self.protocol == other.protocol
                and self.dscp == other.dscp
                and self.ecn == other.ecn
                and self.identification == other.identification)

    def __repr__(self) -> str:
        return (f"Ipv4Header(src_ip={self.src_ip!r}, dst_ip={self.dst_ip!r}, "
                f"total_length={self.total_length!r}, ttl={self.ttl!r}, "
                f"protocol={self.protocol!r}, dscp={self.dscp!r}, "
                f"ecn={self.ecn!r}, identification={self.identification!r})")


class UdpHeader:
    """UDP header. RoCEv2 uses destination port 4791."""

    __slots__ = ("src_port", "dst_port", "length")
    __hash__ = None

    def __init__(self, src_port: int = 0, dst_port: int = 4791,
                 length: int = UDP_HEADER_LEN):
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length

    def pack(self) -> bytes:
        return _UDP_PACK(self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "UdpHeader":
        if len(data) - offset < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, _csum = _UDP.unpack_from(data, offset)
        return cls(src_port, dst_port, length)

    def __eq__(self, other: object) -> object:
        if other.__class__ is not UdpHeader:
            return NotImplemented
        return (self.src_port == other.src_port
                and self.dst_port == other.dst_port
                and self.length == other.length)

    def __repr__(self) -> str:
        return (f"UdpHeader(src_port={self.src_port!r}, "
                f"dst_port={self.dst_port!r}, length={self.length!r})")


class BaseTransportHeader:
    """IB Base Transport Header (BTH), 12 bytes.

    Byte 1 carries SE (solicited event), **M (MigReq)** — the field at
    the heart of the CX5/E810 interoperability bug (§6.2.3) — pad count
    and transport version. The A bit (ack request) lives in byte 8.
    """

    __slots__ = ("opcode", "solicited", "migreq", "pad_count", "pkey",
                 "dest_qp", "ack_request", "psn", "becn")
    __hash__ = None

    def __init__(self, opcode: Opcode = Opcode.SEND_ONLY,
                 solicited: bool = False, migreq: bool = True,
                 pad_count: int = 0, pkey: int = 0xFFFF, dest_qp: int = 0,
                 ack_request: bool = False, psn: int = 0, becn: bool = False):
        self.opcode = opcode
        self.solicited = solicited
        self.migreq = migreq
        self.pad_count = pad_count
        self.pkey = pkey
        self.dest_qp = dest_qp
        self.ack_request = ack_request
        self.psn = psn
        # FECN-equivalent bit: RoCEv2 carries congestion in IP.ECN, but
        # the BTH reserved byte is kept for layout fidelity.
        self.becn = becn

    def pack(self) -> bytes:
        return _BTH_PACK(
            int(self.opcode),
            # byte 1: SE | M | pad | transport version (0)
            (int(self.solicited) << 7)
            | (int(self.migreq) << 6)
            | ((self.pad_count & 0x3) << 4),
            self.pkey,
            int(self.becn) << 6,  # reserved byte carries the BECN bit
            (self.dest_qp & 0xFFFFFF).to_bytes(3, "big"),
            int(self.ack_request) << 7,
            (self.psn & 0xFFFFFF).to_bytes(3, "big"),
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "BaseTransportHeader":
        if len(data) - offset < BTH_LEN:
            raise ValueError("truncated BTH")
        opcode, byte1, pkey, resv, dqp, abyte, psn = _BTH.unpack_from(data,
                                                                      offset)
        try:
            # Dict lookup instead of the (slow) EnumMeta call path.
            opcode = _OPCODE_BY_VALUE[opcode]
        except KeyError:
            raise ValueError(f"{opcode} is not a valid Opcode") from None
        return cls(
            opcode,
            bool(byte1 & 0x80),          # solicited
            bool(byte1 & 0x40),          # migreq
            (byte1 >> 4) & 0x3,          # pad_count
            pkey,
            int.from_bytes(dqp, "big"),  # dest_qp
            bool(abyte & 0x80),          # ack_request
            int.from_bytes(psn, "big"),  # psn
            bool(resv & 0x40),           # becn
        )

    def __eq__(self, other: object) -> object:
        if other.__class__ is not BaseTransportHeader:
            return NotImplemented
        return (self.opcode == other.opcode
                and self.solicited == other.solicited
                and self.migreq == other.migreq
                and self.pad_count == other.pad_count
                and self.pkey == other.pkey
                and self.dest_qp == other.dest_qp
                and self.ack_request == other.ack_request
                and self.psn == other.psn
                and self.becn == other.becn)

    def __repr__(self) -> str:
        return (f"BaseTransportHeader(opcode={self.opcode!r}, "
                f"solicited={self.solicited!r}, migreq={self.migreq!r}, "
                f"pad_count={self.pad_count!r}, pkey={self.pkey!r}, "
                f"dest_qp={self.dest_qp!r}, ack_request={self.ack_request!r}, "
                f"psn={self.psn!r}, becn={self.becn!r})")


class RdmaExtendedHeader:
    """RETH: virtual address, rkey and DMA length (Write / Read request)."""

    __slots__ = ("virtual_address", "rkey", "dma_length")
    __hash__ = None

    def __init__(self, virtual_address: int = 0, rkey: int = 0,
                 dma_length: int = 0):
        self.virtual_address = virtual_address
        self.rkey = rkey
        self.dma_length = dma_length

    def pack(self) -> bytes:
        return _RETH_PACK(self.virtual_address, self.rkey, self.dma_length)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "RdmaExtendedHeader":
        if len(data) - offset < RETH_LEN:
            raise ValueError("truncated RETH")
        va, rkey, dma_len = _RETH.unpack_from(data, offset)
        return cls(va, rkey, dma_len)

    def __eq__(self, other: object) -> object:
        if other.__class__ is not RdmaExtendedHeader:
            return NotImplemented
        return (self.virtual_address == other.virtual_address
                and self.rkey == other.rkey
                and self.dma_length == other.dma_length)

    def __repr__(self) -> str:
        return (f"RdmaExtendedHeader(virtual_address={self.virtual_address!r}, "
                f"rkey={self.rkey!r}, dma_length={self.dma_length!r})")


class AckExtendedHeader:
    """AETH: syndrome + MSN, carried by ACK/NAK and read-response packets."""

    __slots__ = ("syndrome", "msn")
    __hash__ = None

    def __init__(self, syndrome: int = 0, msn: int = 0):
        self.syndrome = syndrome
        self.msn = msn

    def pack(self) -> bytes:
        return _AETH_PACK(self.syndrome, (self.msn & 0xFFFFFF).to_bytes(3, "big"))

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "AckExtendedHeader":
        if len(data) - offset < AETH_LEN:
            raise ValueError("truncated AETH")
        syndrome, msn = _AETH.unpack_from(data, offset)
        return cls(syndrome, int.from_bytes(msn, "big"))

    @property
    def is_ack(self) -> bool:
        kind, _ = AethSyndrome.decode(self.syndrome)
        return kind == AethSyndrome.ACK

    @property
    def is_nak(self) -> bool:
        kind, _ = AethSyndrome.decode(self.syndrome)
        return kind == AethSyndrome.NAK

    @property
    def is_rnr(self) -> bool:
        kind, _ = AethSyndrome.decode(self.syndrome)
        return kind == AethSyndrome.RNR_NAK

    @classmethod
    def ack(cls, msn: int = 0) -> "AckExtendedHeader":
        return cls(syndrome=AethSyndrome.encode(AethSyndrome.ACK, 0x1F), msn=msn)

    @classmethod
    def rnr_nak(cls, timer_code: int = 1, msn: int = 0) -> "AckExtendedHeader":
        """Receiver-not-ready NAK: no receive WQE for an inbound Send."""
        return cls(syndrome=AethSyndrome.encode(AethSyndrome.RNR_NAK, timer_code),
                   msn=msn)

    @classmethod
    def nak_sequence_error(cls, msn: int = 0) -> "AckExtendedHeader":
        return cls(
            syndrome=AethSyndrome.encode(AethSyndrome.NAK, NAK_PSN_SEQUENCE_ERROR),
            msn=msn,
        )

    def __eq__(self, other: object) -> object:
        if other.__class__ is not AckExtendedHeader:
            return NotImplemented
        return self.syndrome == other.syndrome and self.msn == other.msn

    def __repr__(self) -> str:
        return f"AckExtendedHeader(syndrome={self.syndrome!r}, msn={self.msn!r})"
