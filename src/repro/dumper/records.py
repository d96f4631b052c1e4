"""Dump records: trimmed packets as the dumpers store them on disk.

The packet dumper keeps only the first 128 bytes of each mirrored
packet (§5) — enough for every protocol header Lumina needs — together
with a host receive timestamp. The bytes are the switch's capture frame
unchanged (:mod:`repro.net.capture` owns the layout), exactly what a
DPDK dumper would write; :func:`parse_record` reads them back into a
:class:`~repro.net.capture.ParsedRecord`, whose switch-embedded
metadata (event type from TTL, mirror sequence from the source MAC,
switch timestamp from the destination MAC) is read at once and whose
headers are decoded on first access.
"""

from __future__ import annotations

from ..net.capture import TRIM_BYTES, ParsedRecord, restore_rss_port

__all__ = ["TRIM_BYTES", "DumpRecord", "ParsedRecord", "parse_record"]


class DumpRecord:
    """One trimmed packet as buffered in dumper memory / written to disk.

    Slotted by hand (not a dataclass): one instance per mirrored packet
    plus one per ``restored()`` copy at TERM, so construction cost is on
    the capture hot path. Value semantics match the dataclass this
    replaced (field-order ``__init__``, ``__eq__``, unhashable).
    """

    __slots__ = ("raw", "rx_time_ns", "server", "core")
    __hash__ = None

    def __init__(self, raw: bytes, rx_time_ns: int, server: str, core: int):
        self.raw = raw
        self.rx_time_ns = rx_time_ns
        self.server = server
        self.core = core

    def __eq__(self, other: object) -> object:
        if other.__class__ is not DumpRecord:
            return NotImplemented
        return (self.raw == other.raw
                and self.rx_time_ns == other.rx_time_ns
                and self.server == other.server
                and self.core == other.core)

    def __repr__(self) -> str:
        return (f"DumpRecord(raw={self.raw!r}, "
                f"rx_time_ns={self.rx_time_ns!r}, "
                f"server={self.server!r}, core={self.core!r})")

    def restored(self) -> "DumpRecord":
        """Record with the UDP destination port restored to 4791 (§3.4).

        The dumper performs this rewrite for all mirrored packets when
        it receives the orchestrator's TERM message, undoing the RSS
        port randomisation before the file hits the disk.
        """
        raw = restore_rss_port(self.raw)
        if raw is self.raw:  # too short to hold a UDP header
            return self
        return DumpRecord(raw, self.rx_time_ns, self.server, self.core)


def parse_record(record: DumpRecord) -> ParsedRecord:
    """Read a dump record back (see :class:`~repro.net.capture.ParsedRecord`).

    Raises ValueError on records that are not RoCEv2 (the dumpers only
    ever receive mirrored RoCE traffic, so this indicates corruption).
    """
    return ParsedRecord(record.raw, record.rx_time_ns, record.server, record.core)
