"""The in-simulation packet object.

A :class:`Packet` carries parsed header objects plus a *virtual* payload
(only its length is tracked — Lumina never needs payload contents, which
is exactly why the real tool trims dumps to 128 bytes).
``pack_headers()`` produces genuine wire bytes for the headers. The
mirrored copy the dumpers store is not a ``Packet``: the switch packs a
capture frame straight from the ingress headers, with the §3.4 metadata
stamped into TTL and the MACs (:mod:`repro.net.capture`).

``Packet`` is a slotted class (not a dataclass): a run allocates one
instance per simulated packet, and the dict-per-instance cost plus
dataclass-generated method overhead was measurable in profiles.
Semantics match the dataclass it replaced — field order, defaults,
value-``__eq__`` over every real field including ``packet_id`` (the
wire-size cache excluded), unhashable — and pickling for the spawn pool
drops that cache. ``pack_headers()`` and ``icrc()`` compute their bytes
afresh on each call: no run path calls them, and the golden wire
vectors pin what they return.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .checksum import icrc_for
from .headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    ETH_HEADER_LEN,
    ICRC_LEN,
    Ipv4Header,
    IPV4_HEADER_LEN,
    Opcode,
    RdmaExtendedHeader,
    UDP_HEADER_LEN,
    UdpHeader,
    BTH_LEN,
    RETH_LEN,
    AETH_LEN,
)

__all__ = ["Packet", "EventType"]

#: Source of ``packet_id``; ``QueuePair._packet`` draws from it too.
_packet_ids = itertools.count(1)


class EventType:
    """Injected-event codes embedded in mirrored packets' TTL field."""

    NONE = 0
    ECN = 1
    DROP = 2
    CORRUPT = 3
    REWRITE = 4  # field rewrite, e.g. the MigReq fix-up action (§6.2.3)
    # §7 lists quantitative delay and packet reordering as planned
    # extensions; both are implemented here.
    DELAY = 5
    REORDER = 6

    NAMES = {NONE: "none", ECN: "ecn", DROP: "drop", CORRUPT: "corrupt",
             REWRITE: "rewrite", DELAY: "delay", REORDER: "reorder"}


class Packet:
    """A simulated RoCEv2 (or plain L2/L3) packet."""

    __slots__ = (
        "eth", "ip", "udp", "bth", "reth", "aeth", "payload_len",
        "icrc_ok", "packet_id",
        # Wire-size cache. Headers are immutable between explicit
        # switch rewrites, so the size is reused until a mutation path
        # calls invalidate_wire_cache(). Excluded from equality and
        # pickling: a cached and an uncached packet are the same packet.
        "_wire_size",
    )
    __hash__ = None  # value-equal, like the dataclass it replaced

    def __init__(self,
                 eth: Optional[EthernetHeader] = None,
                 ip: Optional[Ipv4Header] = None,
                 udp: Optional[UdpHeader] = None,
                 bth: Optional[BaseTransportHeader] = None,
                 reth: Optional[RdmaExtendedHeader] = None,
                 aeth: Optional[AckExtendedHeader] = None,
                 payload_len: int = 0,
                 icrc_ok: bool = True,
                 packet_id: Optional[int] = None):
        self.eth = eth if eth is not None else EthernetHeader()
        self.ip = ip
        self.udp = udp
        self.bth = bth
        self.reth = reth
        self.aeth = aeth
        self.payload_len = payload_len
        #: False once the event injector corrupts the packet: the
        #: receiving RNIC's iCRC validation will fail and the packet is
        #: discarded.
        self.icrc_ok = icrc_ok
        #: Unique id for tracing/debugging inside the simulation only.
        self.packet_id = packet_id if packet_id is not None else next(_packet_ids)
        self._wire_size: Optional[int] = None

    # ------------------------------------------------------------------
    # Value semantics (dataclass-equivalent)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> object:
        if other.__class__ is not Packet:
            return NotImplemented
        return (self.eth == other.eth
                and self.ip == other.ip
                and self.udp == other.udp
                and self.bth == other.bth
                and self.reth == other.reth
                and self.aeth == other.aeth
                and self.payload_len == other.payload_len
                and self.icrc_ok == other.icrc_ok
                and self.packet_id == other.packet_id)

    def __getstate__(self) -> tuple:
        # The size cache is process-local; rebuilt lazily after unpickling.
        return (self.eth, self.ip, self.udp, self.bth, self.reth, self.aeth,
                self.payload_len, self.icrc_ok, self.packet_id)

    def __setstate__(self, state: tuple) -> None:
        (self.eth, self.ip, self.udp, self.bth, self.reth, self.aeth,
         self.payload_len, self.icrc_ok, self.packet_id) = state
        self._wire_size = None

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def header_len(self) -> int:
        size = ETH_HEADER_LEN
        if self.ip is not None:
            size += IPV4_HEADER_LEN
        if self.udp is not None:
            size += UDP_HEADER_LEN
        if self.bth is not None:
            size += BTH_LEN
        if self.reth is not None:
            size += RETH_LEN
        if self.aeth is not None:
            size += AETH_LEN
        return size

    @property
    def size(self) -> int:
        """Total wire size in bytes (headers + payload + iCRC trailer).

        Cached: links read it three times per hop. The QP builder
        stores it at construction; a packet built by ``__init__`` fills
        it on first read.
        """
        size = self._wire_size
        if size is None:
            size = self.header_len + self.payload_len
            if self.bth is not None:
                size += ICRC_LEN
            self._wire_size = size
        return size

    @property
    def is_roce(self) -> bool:
        return self.bth is not None

    @property
    def opcode(self) -> Optional[Opcode]:
        return self.bth.opcode if self.bth is not None else None

    @property
    def psn(self) -> Optional[int]:
        return self.bth.psn if self.bth is not None else None

    @property
    def dest_qp(self) -> Optional[int]:
        return self.bth.dest_qp if self.bth is not None else None

    # ------------------------------------------------------------------
    # Wire representation
    # ------------------------------------------------------------------
    def invalidate_wire_cache(self) -> None:
        """Drop the cached wire size after a header field mutation.

        Every path that rewrites headers in place (the event injector's
        ECN mark, rewrite rules) must call this; construction starts
        clean.
        """
        self._wire_size = None

    def pack_headers(self) -> bytes:
        """Serialise all headers to wire bytes (no payload, no iCRC)."""
        data = self.eth.pack()
        if self.ip is not None:
            data += self.ip.pack()
        if self.udp is not None:
            data += self.udp.pack()
        if self.bth is not None:
            data += self.bth.pack()
        if self.reth is not None:
            data += self.reth.pack()
        if self.aeth is not None:
            data += self.aeth.pack()
        return data

    def icrc(self) -> int:
        """iCRC over transport headers + virtual payload.

        Returns a value that will not match the recomputed CRC when the
        packet has been corrupted in flight (``icrc_ok`` is False).
        """
        transport = b""
        if self.bth is not None:
            transport += self.bth.pack()
        if self.reth is not None:
            transport += self.reth.pack()
        if self.aeth is not None:
            transport += self.aeth.pack()
        value = icrc_for(transport, self.payload_len)
        if not self.icrc_ok:
            value ^= 0xDEADBEEF  # any bit flip invalidates the CRC
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.bth is None:
            return f"<Packet #{self.packet_id} L2 size={self.size}>"
        return (
            f"<Packet #{self.packet_id} {self.bth.opcode.name} "
            f"qp={self.bth.dest_qp:#x} psn={self.bth.psn} size={self.size}>"
        )
