"""Packet-trace reconstruction and integrity checking (§3.5).

After TERM, the orchestrator gathers records from every dumper server
and rebuilds the global trace by sorting on the switch-assigned mirror
sequence number. Integrity requires all three paper conditions:

1. mirror sequence numbers in the trace are consecutive (0..N-1),
2. the switch mirrored exactly N packets,
3. the switch received exactly N RoCE packets (so nothing escaped
   mirroring and nothing was mirrored twice).

A trace also re-derives the ITER number of every packet offline using
the same Fig. 3 algorithm the data plane runs, which is what lets the
analyzers tell retransmissions apart.

Reconstruction reads only what it needs from each record's bytes —
mirror sequence, connection and PSN, plus the metadata and opcode the
trace accessors serve — and validates every record on the spot, so a
malformed record fails here, not in a later analyzer. Header objects
are decoded only when an analyzer or report first reads them
(:class:`~repro.net.capture.ParsedRecord`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ..dumper.records import DumpRecord, ParsedRecord
from ..net.headers import Opcode
from ..net.packet import EventType
from ..switch.itertrack import IterTracker

__all__ = ["TracePacket", "TraceGap", "PacketTrace", "IntegrityReport",
           "reconstruct_trace", "check_integrity", "format_trace"]


class TracePacket:
    """One trace entry: a parsed record plus its offline-derived ITER.

    Slotted by hand: one instance per captured packet is built during
    trace reconstruction. Semantics match the dataclass it replaced.
    The pass-through properties read the record's hot fields and never
    force a header decode.
    """

    __slots__ = ("record", "iteration")
    __hash__ = None

    def __init__(self, record: ParsedRecord, iteration: int):
        self.record = record
        self.iteration = iteration

    def __eq__(self, other: object) -> object:
        if other.__class__ is not TracePacket:
            return NotImplemented
        return (self.record == other.record
                and self.iteration == other.iteration)

    def __repr__(self) -> str:
        return (f"TracePacket(record={self.record!r}, "
                f"iteration={self.iteration!r})")

    # Convenience pass-throughs used heavily by the analyzers.
    @property
    def opcode(self) -> Opcode:
        return self.record.opcode

    @property
    def psn(self) -> int:
        return self.record.psn

    @property
    def timestamp_ns(self) -> int:
        return self.record.switch_timestamp_ns

    @property
    def mirror_seq(self) -> int:
        return self.record.mirror_seq

    @property
    def event_type(self) -> int:
        return self.record.event_type

    @property
    def conn_key(self) -> Tuple[int, int, int]:
        return self.record.conn_key

    @property
    def is_data(self) -> bool:
        return self.record.opcode.is_data

    @property
    def was_dropped(self) -> bool:
        return self.record.event_type == EventType.DROP

    @property
    def was_ecn_marked(self) -> bool:
        return self.record.event_type == EventType.ECN


@dataclass(frozen=True)
class TraceGap:
    """A contiguous range of mirror sequence numbers missing from a trace.

    Gaps are first-class: capture loss (mirror-link drops, dumper ring
    overflow) must not silently degrade analysis. The surrounding switch
    timestamps bound *when* the hole occurred; either bound is None when
    the gap touches the head or tail of the trace, in which case the
    window is treated as open-ended (conservative for overlap queries).
    """

    first_seq: int
    last_seq: int
    #: Switch timestamp of the last packet before the gap (None = head gap).
    before_ns: Optional[int] = None
    #: Switch timestamp of the first packet after the gap (None = tail gap).
    after_ns: Optional[int] = None

    @property
    def count(self) -> int:
        return self.last_seq - self.first_seq + 1

    def overlaps(self, start_ns: int, end_ns: int) -> bool:
        """Whether the gap's time window intersects [start_ns, end_ns].

        Open bounds count as overlap: a head/tail gap could hide
        packets from any time before/after its known edge.
        """
        if self.after_ns is not None and self.after_ns < start_ns:
            return False
        if self.before_ns is not None and self.before_ns > end_ns:
            return False
        return True

    def __str__(self) -> str:
        if self.first_seq == self.last_seq:
            span = f"seq {self.first_seq}"
        else:
            span = f"seqs {self.first_seq}-{self.last_seq}"
        before = "start" if self.before_ns is None else f"{self.before_ns}ns"
        after = "end" if self.after_ns is None else f"{self.after_ns}ns"
        return f"gap of {self.count} ({span}) between {before} and {after}"


@dataclass
class PacketTrace:
    """The reconstructed, time-ordered view of everything on the wire.

    Lookups are index-backed: analyzers call :meth:`find` per packet
    (the Go-back-N checker resolves every (PSN, ITER) identity), so a
    linear scan would make checking quadratic in trace length. The
    indexes are built lazily on first use — a trace is immutable once
    reconstructed — and cover per-connection packet lists plus the
    (connection, PSN, ITER) identity map.
    """

    packets: List[TracePacket] = field(default_factory=list)
    #: How many packets the switch claims to have mirrored; bounds the
    #: mirror-seq space for gap detection (None = trust the trace).
    expected_packets: Optional[int] = None
    _by_conn: Optional[Dict[Tuple[int, int, int], List[TracePacket]]] = \
        field(default=None, repr=False, compare=False)
    _by_identity: Optional[Dict[Tuple, TracePacket]] = \
        field(default=None, repr=False, compare=False)
    _gaps: Optional[List[TraceGap]] = \
        field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self):
        return iter(self.packets)

    def _index(self) -> Dict[Tuple[int, int, int], List[TracePacket]]:
        if self._by_conn is None:
            by_conn: Dict[Tuple[int, int, int], List[TracePacket]] = {}
            by_identity: Dict[Tuple, TracePacket] = {}
            for pkt in self.packets:
                by_conn.setdefault(pkt.conn_key, []).append(pkt)
                # First match wins, like the original scan did.
                by_identity.setdefault(
                    (pkt.conn_key, pkt.psn, pkt.iteration), pkt)
            self._by_conn = by_conn
            self._by_identity = by_identity
        return self._by_conn

    def connections(self) -> List[Tuple[int, int, int]]:
        """Directed connection keys present, in first-seen order."""
        return list(self._index())

    def for_connection(self, conn_key: Tuple[int, int, int]) -> List[TracePacket]:
        return list(self._index().get(conn_key, ()))

    def data_packets(self, conn_key: Optional[Tuple[int, int, int]] = None
                     ) -> List[TracePacket]:
        return [p for p in self.packets
                if p.is_data and (conn_key is None or p.conn_key == conn_key)]

    def by_opcode(self, *opcodes: Opcode) -> List[TracePacket]:
        wanted = set(opcodes)
        return [p for p in self.packets if p.opcode in wanted]

    def cnps(self) -> List[TracePacket]:
        return self.by_opcode(Opcode.CNP)

    def acks(self) -> List[TracePacket]:
        return self.by_opcode(Opcode.ACKNOWLEDGE)

    def naks(self) -> List[TracePacket]:
        return [p for p in self.acks()
                if p.record.aeth is not None and p.record.aeth.is_nak]

    def find(self, conn_key: Tuple[int, int, int], psn: int,
             iteration: int = 1) -> Optional[TracePacket]:
        """The packet of a connection with the given (PSN, ITER) identity."""
        self._index()
        assert self._by_identity is not None
        return self._by_identity.get((conn_key, psn, iteration))

    @property
    def gaps(self) -> List[TraceGap]:
        """Missing mirror-seq ranges, annotated with bounding timestamps.

        Packets arrive sorted by mirror sequence (reconstruct_trace
        guarantees it), so a single pass finds every hole. When the
        switch mirrored more packets than the trace holds, the shortfall
        shows up as a tail gap — the case the naive len()-based check
        was blind to.
        """
        if self._gaps is None:
            gaps: List[TraceGap] = []
            prev_seq = -1
            prev_ts: Optional[int] = None
            for pkt in self.packets:
                if pkt.mirror_seq > prev_seq + 1:
                    gaps.append(TraceGap(
                        first_seq=prev_seq + 1,
                        last_seq=pkt.mirror_seq - 1,
                        before_ns=prev_ts,
                        after_ns=pkt.timestamp_ns,
                    ))
                prev_seq = pkt.mirror_seq
                prev_ts = pkt.timestamp_ns
            if self.expected_packets is not None and prev_seq + 1 < self.expected_packets:
                gaps.append(TraceGap(
                    first_seq=prev_seq + 1,
                    last_seq=self.expected_packets - 1,
                    before_ns=prev_ts,
                    after_ns=None,
                ))
            self._gaps = gaps
        return self._gaps

    @property
    def has_gaps(self) -> bool:
        return bool(self.gaps)

    @property
    def coverage(self) -> float:
        """Fraction of the mirror-seq space present in the trace."""
        total = len(self.packets) + sum(g.count for g in self.gaps)
        if total == 0:
            return 1.0
        return len(self.packets) / total

    def gaps_overlap_window(self, start_ns: int, end_ns: int) -> bool:
        """Whether any capture gap could hide packets in [start, end]."""
        return any(g.overlaps(start_ns, end_ns) for g in self.gaps)

    def conn_coverage_ok(self, conn_key: Tuple[int, int, int]) -> bool:
        """Whether this connection's packets are provably all present.

        False when a gap's time window intersects the connection's
        lifetime, or when the connection is absent from a gapped trace
        (the gap itself could be hiding the whole connection).
        """
        if not self.gaps:
            return True
        pkts = self._index().get(conn_key)
        if not pkts:
            return False
        first = pkts[0].timestamp_ns
        last = pkts[-1].timestamp_ns
        return not self.gaps_overlap_window(first, last)


@dataclass
class IntegrityReport:
    """Result of the three-condition §3.5 integrity check."""

    seq_consecutive: bool
    mirror_count_matches: bool
    roce_count_matches: bool
    trace_packets: int
    mirrored_packets: int
    roce_rx_packets: int
    missing_seqs: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.seq_consecutive and self.mirror_count_matches
                and self.roce_count_matches)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"integrity {status}: trace={self.trace_packets} "
                f"mirrored={self.mirrored_packets} roce_rx={self.roce_rx_packets} "
                f"missing={len(self.missing_seqs)}")


def format_trace(trace: PacketTrace, limit: Optional[int] = None,
                 conn_key: Optional[Tuple[int, int, int]] = None) -> str:
    """Render a trace as tcpdump-style text (debugging / examples).

    One line per packet: switch timestamp, mirror sequence, addresses,
    opcode, PSN, offline-derived ITER and any injected event.
    """
    from ..net.addressing import int_to_ip

    lines = []
    shown = 0
    for pkt in trace:
        if conn_key is not None and pkt.conn_key != conn_key:
            continue
        if limit is not None and shown >= limit:
            lines.append(f"... ({len(trace) - shown} more packets)")
            break
        shown += 1
        record = pkt.record
        event = ""
        if pkt.event_type != EventType.NONE:
            event = f"  [{record.event_name.upper()}]"
        extra = ""
        if record.aeth is not None:
            if record.aeth.is_nak:
                extra = " NAK"
            elif record.aeth.is_rnr:
                extra = " RNR"
            elif pkt.opcode == Opcode.ACKNOWLEDGE:
                extra = " ACK"
        lines.append(
            f"{pkt.timestamp_ns / 1e3:12.3f}us #{pkt.mirror_seq:<6d} "
            f"{int_to_ip(record.ip.src_ip):>11s} > "
            f"{int_to_ip(record.ip.dst_ip):<11s} "
            f"{pkt.opcode.name:<26s} psn={pkt.psn:<8d} "
            f"iter={pkt.iteration}{extra}{event}"
        )
    return "\n".join(lines)


_MIRROR_SEQ = attrgetter("mirror_seq")


def reconstruct_trace(records: Iterable[DumpRecord],
                      expected_packets: Optional[int] = None) -> PacketTrace:
    """Sort dumped records by mirror sequence and re-derive ITERs.

    ``expected_packets`` is the switch's mirrored-packet count; passing
    it lets the trace annotate *tail* losses (mirror seqs beyond the
    last captured packet) as gaps, which the trace alone cannot see.
    Raises ValueError on the first record that is not RoCEv2.
    """
    parsed = sorted([ParsedRecord(r.raw, r.rx_time_ns, r.server, r.core)
                     for r in records], key=_MIRROR_SEQ)
    tracker = IterTracker(max_connections=1_000_000)
    packets = []
    append = packets.append
    update = tracker.update
    for record in parsed:
        src_ip, dst_ip, dest_qp = record.conn_key
        append(TracePacket(record, update(src_ip, dst_ip, dest_qp, record.psn)))
    return PacketTrace(packets=packets, expected_packets=expected_packets)


def check_integrity(trace: PacketTrace, switch_counters: Dict) -> IntegrityReport:
    """Apply the three §3.5 conditions against the switch's counters.

    ``missing_seqs`` is computed against the switch's *mirrored* count,
    not the trace length: with seqs [0,1,2] and mirrored=5 the missing
    set is [3,4]. The old ``range(len(seqs))`` form could never report
    a tail loss — every lost-highest-seq capture looked gapless.
    """
    seqs = [p.mirror_seq for p in trace.packets]
    mirrored = int(switch_counters.get("mirrored_packets", 0))
    roce_rx = int(switch_counters.get("roce_rx_packets", 0))
    expected_count = mirrored if mirrored else len(seqs)
    missing = sorted(set(range(expected_count)) - set(seqs))
    consecutive = seqs == list(range(len(seqs))) and len(set(seqs)) == len(seqs)
    return IntegrityReport(
        seq_consecutive=consecutive,
        mirror_count_matches=(mirrored == len(seqs)),
        roce_count_matches=(roce_rx == len(seqs)),
        trace_packets=len(seqs),
        mirrored_packets=mirrored,
        roce_rx_packets=roce_rx,
        missing_seqs=missing,
    )
