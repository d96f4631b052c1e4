"""Reliable-Connected queue pair state machine.

Implements both roles of an RC connection on top of the NIC model:

* **Requester**: packetises Send/Write messages, issues Read requests,
  reacts to ACK/NAK (Go-back-N rewind after the profile's NACK-reaction
  delay), runs the retransmission timer (spec or adaptive mode, §6.3),
  and receives Read responses — re-issuing a Read request on an
  out-of-order response, which is Read's "implied NACK" (§6.1).
* **Responder**: the Go-back-N receiver — accepts in-order data,
  NAKs the expected PSN on a sequence gap (once per gap), ACKs on
  ack-request packets, and serves Read requests, including re-serving
  ranges for retransmitted requests after the NACK-reaction delay.

PSN accounting follows the IB spec: every data packet consumes one PSN
and a Read request consumes as many PSNs as it will generate response
packets, so request and response streams share one sequence space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..net.headers import (
    AckExtendedHeader,
    AethSyndrome,
    BaseTransportHeader,
    DATA_OPCODES,
    EthernetHeader,
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    Ipv4Header,
    LAST_OPCODES,
    NAK_PSN_SEQUENCE_ERROR,
    Opcode,
    RdmaExtendedHeader,
    READ_RESPONSE_OPCODES,
    UdpHeader,
    ECN_ECT0,
)
from ..coverage import runtime as coverage
from ..net.packet import Packet, _packet_ids
from ..net.addressing import ROCEV2_UDP_PORT
from .dcqcn import DcqcnRp
from .verbs import (
    CompletionQueue,
    Verb,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

if TYPE_CHECKING:  # pragma: no cover
    from .nic import RdmaNic

__all__ = ["QpState", "QueuePair", "PSN_MASK"]

PSN_MASK = 0xFFFFFF


def psn_add(psn: int, delta: int) -> int:
    return (psn + delta) & PSN_MASK


def psn_distance(later: int, earlier: int) -> int:
    """Forward distance from ``earlier`` to ``later`` in 24-bit space."""
    return (later - earlier) & PSN_MASK


def psn_geq(a: int, b: int) -> bool:
    """a >= b under the IB 24-bit window comparison."""
    return psn_distance(a, b) < (1 << 23)


_new = object.__new__

_ACK = Opcode.ACKNOWLEDGE
_READ_REQUEST = Opcode.RDMA_READ_REQUEST
_SEND_STARTS = frozenset({Opcode.SEND_FIRST, Opcode.SEND_ONLY})
#: Opcodes that advance the request stream's highest-sent PSN.
_PSN_STREAM_OPCODES = DATA_OPCODES | {_READ_REQUEST}

#: Per message kind: the (ONLY, FIRST, MIDDLE, LAST) opcodes.
_MESSAGE_OPCODES = {
    Verb.SEND: (Opcode.SEND_ONLY, Opcode.SEND_FIRST, Opcode.SEND_MIDDLE,
                Opcode.SEND_LAST),
    Verb.WRITE: (Opcode.RDMA_WRITE_ONLY, Opcode.RDMA_WRITE_FIRST,
                 Opcode.RDMA_WRITE_MIDDLE, Opcode.RDMA_WRITE_LAST),
}
_READ_RESPONSE_SEQUENCE = (
    Opcode.RDMA_READ_RESPONSE_ONLY, Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_MIDDLE, Opcode.RDMA_READ_RESPONSE_LAST)


def _opcode_at(opcodes: Tuple[Opcode, Opcode, Opcode, Opcode], index: int,
               total: int) -> Opcode:
    """Opcode of packet ``index`` of a ``total``-packet message."""
    only, first, middle, last = opcodes
    if total == 1:
        return only
    if index == 0:
        return first
    return last if index == total - 1 else middle


# AETH syndromes the QP emits (IB spec 9.7.5.2.4).
_SYNDROME_ACK = AethSyndrome.encode(AethSyndrome.ACK, 0x1F)
_SYNDROME_NAK = AethSyndrome.encode(AethSyndrome.NAK, NAK_PSN_SEQUENCE_ERROR)
_SYNDROME_RNR_NAK = AethSyndrome.encode(AethSyndrome.RNR_NAK, 1)

#: Wire bytes of every header plus the iCRC, per opcode the QP emits; a
#: packet's wire size is this plus its payload. Write FIRST/ONLY and the
#: Read request carry a RETH (16 bytes), ACK/NAK an AETH (4 bytes). A
#: Read response LAST/ONLY also carries an AETH, but its 4 bytes are not
#: counted in the wire size, IP total length or UDP length: the model
#: has always attached that AETH after setting the lengths, and every
#: recorded result carries those lengths.
_WIRE_OVERHEAD = {opcode: 58 for opcode in Opcode}
_WIRE_OVERHEAD.update({
    Opcode.RDMA_WRITE_FIRST: 74,
    Opcode.RDMA_WRITE_ONLY: 74,
    Opcode.RDMA_READ_REQUEST: 74,
    Opcode.ACKNOWLEDGE: 62,
})


class QpState(str, Enum):
    RESET = "reset"
    RTS = "rts"  # ready to send (connected)
    ERROR = "error"


@dataclass(slots=True)
class _PacketTemplate:
    """Everything needed to (re)build one data packet of the request stream."""

    psn: int
    opcode: Opcode
    payload_len: int
    ack_request: bool
    #: (virtual address, rkey, DMA length) of the RETH, if the packet has one.
    reth: Optional[Tuple[int, int, int]] = None


@dataclass
class _SendMessage:
    """An in-flight Send/Write message awaiting its covering ACK."""

    wr: WorkRequest
    first_psn: int
    last_psn: int
    posted_at: int


@dataclass
class _ReadRange:
    """An outstanding Read: PSN range its responses will occupy."""

    wr: WorkRequest
    first_psn: int
    last_psn: int
    posted_at: int
    base_address: int
    rkey: int


class QueuePair:
    """One RC queue pair hosted on an :class:`~repro.rdma.nic.RdmaNic`."""

    def __init__(self, nic: "RdmaNic", qp_num: int, initial_psn: int,
                 cq: CompletionQueue, src_ip: int, mtu: int = 1024):
        self.nic = nic
        self.sim = nic.sim
        self.profile = nic.profile
        self.qp_num = qp_num
        self.initial_psn = initial_psn & PSN_MASK
        self.cq = cq
        self.src_ip = src_ip
        self.mtu = mtu
        self.state = QpState.RESET
        self.ets_queue_index = 0

        # Connection parameters (filled by connect()).
        self.dest_ip = 0
        self.dest_mac = 0
        self.dest_qp_num = 0
        self.dest_initial_psn = 0
        self._set_header_template()

        # Loss-recovery configuration (Listing 2 knobs).
        self.timeout_cfg = 14          # min RTO = 4.096 µs * 2^timeout
        self.retry_cnt = 7
        self.adaptive_retrans = False

        # ---- requester state ------------------------------------------
        self.next_psn = self.initial_psn
        self.snd_una = self.initial_psn      # oldest unacked request PSN
        self.pending_tx: Deque[Packet] = deque()
        self._templates: Dict[int, _PacketTemplate] = {}
        self._messages: List[_SendMessage] = []
        self._read_ranges: Deque[_ReadRange] = deque()
        self._highest_psn_sent: Optional[int] = None
        self.retry_count = 0
        self._timeout_event = None
        self._last_progress = 0
        self._adaptive_stage = 0
        self._adaptive_retry_budget: Optional[int] = None
        self._react_pending = False    # NACK reaction delay in progress
        self._read_gap_pending = False   # re-issued Read req being prepared
        self._read_nak_outstanding = False  # one implied NACK per gap

        # Read-response reception cursor (requester side).
        self._expected_resp_psn: Optional[int] = None

        # ---- responder state ------------------------------------------
        self.epsn = 0                  # expected PSN from the remote peer
        self._nak_sent_for_gap = False
        self.msn = 0
        self._first_message_done = False  # MigReq slow-path cache signal
        # Receive queue for inbound Sends. ``auto_recv`` models the
        # paper's responder, which continuously posts Recv requests
        # (§3.2); turning it off exposes the RC RNR-NAK path.
        self.auto_recv = True
        self._recv_wqes = 0
        self._rnr_nak_pending = False

        # ---- requester RNR handling ------------------------------------
        self.rnr_timer_ns = 10_000
        self.rnr_retry_limit = 7
        self._rnr_retry_count = 0

        # DCQCN reaction point paces this QP's data transmissions; rate
        # updates are surfaced through the NIC's telemetry handles.
        self.dcqcn = DcqcnRp(self.sim, nic.port.bandwidth_bps,
                             params=nic.dcqcn_params,
                             on_rate_change=nic.on_dcqcn_rate_change)
        self.dcqcn_enabled = True
        self._pacing_next = 0

        # Per-QP statistics surfaced through the traffic generator log.
        self.bytes_completed = 0
        self.messages_completed = 0

        # Coverage: GBN state-machine edges share the NIC's domain
        # handle; the flight recorder ring is per-QP.
        self._cov_gbn = nic._cov_gbn
        self._rec = coverage.current().recorder(
            f"qp:{nic.name}:{qp_num:#x}")

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self, dest_ip: int, dest_qp_num: int, dest_initial_psn: int,
                timeout_cfg: Optional[int] = None, retry_cnt: Optional[int] = None,
                adaptive_retrans: Optional[bool] = None) -> None:
        """Transition to RTS with the peer's metadata (exchanged in §3.2)."""
        self.dest_ip = dest_ip
        self.dest_mac = self.nic.resolve_mac(dest_ip)
        self.dest_qp_num = dest_qp_num
        self.dest_initial_psn = dest_initial_psn & PSN_MASK
        self.epsn = self.dest_initial_psn
        self._set_header_template()
        if timeout_cfg is not None:
            self.timeout_cfg = timeout_cfg
        if retry_cnt is not None:
            self.retry_cnt = retry_cnt
        if adaptive_retrans is not None:
            self.adaptive_retrans = adaptive_retrans and self.profile.supports_adaptive_retrans
        self.state = QpState.RTS
        self._last_progress = self.sim.now

    def _set_header_template(self) -> None:
        """Fix the header fields every packet of this QP shares.

        MACs, IPs, UDP source port, destination QPN and MigReq do not
        change after ``connect()``; :meth:`_packet` reads them from this
        one tuple instead of from five objects per packet.
        """
        self._header_template = (
            self.dest_mac, self.nic.mac, self.src_ip, self.dest_ip,
            0xC000 | (self.qp_num & 0x3FFF), self.dest_qp_num,
            bool(self.profile.migreq_initial),
        )

    # ------------------------------------------------------------------
    # Pacing interface used by the NIC's ETS scheduler
    # ------------------------------------------------------------------
    def has_pending_tx(self) -> bool:
        return bool(self.pending_tx)

    @property
    def pacing_ready_at(self) -> int:
        return self._pacing_next if self.dcqcn_enabled else 0

    def dequeue_tx(self) -> Packet:
        packet = self.pending_tx.popleft()
        bth = packet.bth
        psn = bth.psn
        if self.dcqcn_enabled:
            size = packet.size
            dcqcn = self.dcqcn
            current = dcqcn.current_rate_bps
            rate = current if current > 1 else 1
            gap = size * 8_000_000_000 // rate
            now = self.sim.now
            prev = self._pacing_next
            self._pacing_next = (now if now > prev else prev) + gap
            if current < dcqcn.line_rate_bps:
                # At line rate on_bytes_sent has nothing to count.
                dcqcn.on_bytes_sent(size)
        # PSN comparisons are psn_geq inline: (a - b) & PSN_MASK < 2**23.
        highest = self._highest_psn_sent
        if highest is not None and psn in self._templates and \
                (highest - psn) & PSN_MASK < 0x800000:
            self.nic.counters.incr("retransmitted_packets")
            self.nic._m_retrans.inc()
        if bth.opcode in _PSN_STREAM_OPCODES and \
                (highest is None or (psn - highest) & PSN_MASK < 0x800000):
            self._highest_psn_sent = psn
        return packet

    # ------------------------------------------------------------------
    # Posting work
    # ------------------------------------------------------------------
    def post_send(self, wr: WorkRequest) -> None:
        """Post a Send/Write/Read work request (requester role)."""
        if self.state is not QpState.RTS:
            raise RuntimeError(f"QP {self.qp_num:#x} not in RTS (is {self.state})")
        posted_at = self.sim.now
        if wr.verb is Verb.READ:
            self._post_read(wr, posted_at)
        else:
            self._post_send_or_write(wr, posted_at)
        self._arm_timeout()
        self.nic.notify_tx()

    def _post_send_or_write(self, wr: WorkRequest, posted_at: int) -> None:
        npkts = max(1, (wr.length + self.mtu - 1) // self.mtu)
        first_psn = self.next_psn
        remaining = wr.length
        opcodes = _MESSAGE_OPCODES[wr.verb]
        templates = self._templates
        append = self.pending_tx.append
        build = self._build_from_template
        for i in range(npkts):
            payload = min(self.mtu, remaining)
            remaining -= payload
            opcode = _opcode_at(opcodes, i, npkts)
            reth = None
            if wr.verb is Verb.WRITE and i == 0:
                reth = (wr.remote_address, wr.remote_rkey, wr.length)
            psn = (first_psn + i) & PSN_MASK
            template = _PacketTemplate(psn, opcode, payload, i == npkts - 1,
                                       reth)
            templates[psn] = template
            append(build(template))
        last_psn = psn_add(first_psn, npkts - 1)
        self.next_psn = psn_add(first_psn, npkts)
        self._messages.append(_SendMessage(wr, first_psn, last_psn, posted_at))

    def _post_read(self, wr: WorkRequest, posted_at: int) -> None:
        npkts = max(1, (wr.length + self.mtu - 1) // self.mtu)
        first_psn = self.next_psn
        last_psn = psn_add(first_psn, npkts - 1)
        self.next_psn = psn_add(first_psn, npkts)
        rng = _ReadRange(wr, first_psn, last_psn, posted_at,
                         base_address=wr.remote_address, rkey=wr.remote_rkey)
        self._read_ranges.append(rng)
        if self._expected_resp_psn is None:
            self._expected_resp_psn = first_psn
        self.pending_tx.append(
            self._build_read_request(first_psn, wr.remote_address, wr.remote_rkey, wr.length)
        )

    # ------------------------------------------------------------------
    # Packet builders
    # ------------------------------------------------------------------
    def _packet(self, opcode: Opcode, psn: int, payload_len: int,
                ack_request: bool = False,
                reth: Optional[Tuple[int, int, int]] = None,
                syndrome: Optional[int] = None) -> Packet:
        """Build one packet of this QP from the per-QP header template.

        Every packet this QP emits comes from here. Headers and packet
        are made by ``__new__`` plus slot stores (no ``__init__`` frames,
        no keyword processing), with the IP total length, UDP length and
        wire size set in the same pass from :data:`_WIRE_OVERHEAD`. Each
        packet gets its own header objects: the switch marks ECN and
        rewrite rules change fields in place. ``reth`` is (virtual
        address, rkey, DMA length); ``syndrome`` adds an AETH carrying
        the current MSN.
        """
        dst_mac, src_mac, src_ip, dst_ip, src_port, dest_qp, migreq = \
            self._header_template
        size = _WIRE_OVERHEAD[opcode] + payload_len

        eth = _new(EthernetHeader)
        eth.dst_mac = dst_mac
        eth.src_mac = src_mac
        eth.ethertype = ETHERTYPE_IPV4

        ip = _new(Ipv4Header)
        ip.src_ip = src_ip
        ip.dst_ip = dst_ip
        ip.total_length = size - 14      # everything after Ethernet
        ip.ttl = 64
        ip.protocol = IPPROTO_UDP
        ip.dscp = 0
        ip.ecn = ECN_ECT0
        ip.identification = 0

        udp = _new(UdpHeader)
        udp.src_port = src_port
        udp.dst_port = ROCEV2_UDP_PORT
        udp.length = size - 34           # everything after IP

        bth = _new(BaseTransportHeader)
        bth.opcode = opcode
        bth.solicited = False
        bth.migreq = migreq
        bth.pad_count = 0
        bth.pkey = 0xFFFF
        bth.dest_qp = dest_qp
        bth.ack_request = ack_request
        bth.psn = psn
        bth.becn = False

        packet = _new(Packet)
        packet.eth = eth
        packet.ip = ip
        packet.udp = udp
        packet.bth = bth
        if reth is None:
            packet.reth = None
        else:
            header = packet.reth = _new(RdmaExtendedHeader)
            header.virtual_address, header.rkey, header.dma_length = reth
        if syndrome is None:
            packet.aeth = None
        else:
            aeth = packet.aeth = _new(AckExtendedHeader)
            aeth.syndrome = syndrome
            aeth.msn = self.msn
        packet.payload_len = payload_len
        packet.icrc_ok = True
        packet.packet_id = next(_packet_ids)
        packet._wire_size = size
        return packet

    def _build_from_template(self, template: _PacketTemplate) -> Packet:
        return self._packet(template.opcode, template.psn,
                            template.payload_len, template.ack_request,
                            template.reth)

    def _build_read_request(self, psn: int, address: int, rkey: int, length: int) -> Packet:
        return self._packet(_READ_REQUEST, psn, 0, True,
                            (address, rkey, length))

    def build_cnp(self) -> Packet:
        """A CNP addressed to this QP's peer (used by the NIC's NP block)."""
        return self._packet(Opcode.CNP, 0, 0)

    # ------------------------------------------------------------------
    # Receive dispatch (called by the NIC after its RX pipeline delay)
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if self.state is QpState.ERROR:
            return
        opcode = packet.bth.opcode
        if opcode == _ACK:
            self._handle_ack(packet)
        elif opcode in READ_RESPONSE_OPCODES:
            self._handle_read_response(packet)
        elif opcode == _READ_REQUEST:
            self._handle_read_request(packet)
        elif opcode in DATA_OPCODES:
            self._handle_data(packet)

    def handle_cnp(self) -> None:
        """RP role: a CNP arrived for this QP."""
        self.nic.counters.incr("cnp_handled")
        self.nic._m_cnp_handled.inc()
        self.nic._cov_nic.hit("cnp-handled", self.sim.now)
        if self.dcqcn_enabled:
            self.dcqcn.handle_cnp()

    def post_recv(self, count: int = 1) -> None:
        """Post receive WQEs for inbound Sends (responder role)."""
        if count < 1:
            raise ValueError("post_recv count must be positive")
        self._recv_wqes += count

    @property
    def recv_wqes_available(self) -> int:
        return self._recv_wqes

    # ---- responder: Send/Write data ----------------------------------
    def _handle_data(self, packet: Packet) -> None:
        psn = packet.bth.psn
        if psn == self.epsn:
            opcode = packet.bth.opcode
            if opcode in _SEND_STARTS and not self.auto_recv:
                # A new inbound Send consumes a receive WQE; with none
                # available the responder answers RNR NAK and does not
                # advance its expected PSN (IB spec 9.7.5.2.8).
                if self._recv_wqes <= 0:
                    self.nic.counters.incr("rnr_nak_sent")
                    self._cov_gbn.hit("rnr-nak-sent", self.sim.now)
                    self._rec.note(self.sim.now, "rnr-nak-sent",
                                   f"psn={psn}")
                    if not self._rnr_nak_pending:
                        self._rnr_nak_pending = True
                        delay = self.nic.rng.jitter_ns(
                            self.profile.ack_gen_ns,
                            self.profile.latency_jitter_frac)
                        self.sim.schedule(delay, self._emit_rnr_nak, psn)
                    return
                self._recv_wqes -= 1
                self._rnr_nak_pending = False
            self._cov_gbn.hit("in-order-accept", self.sim.now)
            self.epsn = psn_add(self.epsn, 1)
            self._nak_sent_for_gap = False
            if opcode in LAST_OPCODES:
                self.msn = (self.msn + 1) & PSN_MASK
                self._first_message_done = True
            if packet.bth.ack_request:
                self._schedule_ack(psn)
        elif psn_geq(psn, self.epsn):
            # Sequence gap: Go-back-N receiver NAKs the expected PSN,
            # once per gap (IB spec 9.7.5.2.8).
            self.nic.counters.incr("out_of_sequence")
            if not self._nak_sent_for_gap:
                self._nak_sent_for_gap = True
                self._cov_gbn.hit("gap-nak", self.sim.now)
                self._rec.note(self.sim.now, "gap-nak",
                               f"psn={psn} epsn={self.epsn}")
                self._schedule_nak(self.epsn)
        else:
            # Duplicate from a Go-back-N replay; re-ACK so the sender
            # can make progress if our ACK was lost.
            self.nic.counters.incr("duplicate_request")
            self._cov_gbn.hit("duplicate-request", self.sim.now)
            if packet.bth.ack_request:
                self._schedule_ack(psn)

    def _schedule_ack(self, psn: int) -> None:
        delay = self.nic.rng.jitter_ns(self.profile.ack_gen_ns,
                                       self.profile.latency_jitter_frac)
        self.sim.schedule(delay, self._emit_ack, psn, False)

    def _schedule_nak(self, psn: int) -> None:
        delay = self.nic.rng.jitter_ns(self.profile.nack_gen_write_ns,
                                       self.profile.latency_jitter_frac)
        self.sim.schedule(delay, self._emit_ack, psn, True)

    def _emit_ack(self, psn: int, nak: bool) -> None:
        if self.state is QpState.ERROR:
            return
        if nak:
            self.nic.counters.incr("nak_sent")
        self.nic.send_control(self._packet(
            _ACK, psn, 0, syndrome=_SYNDROME_NAK if nak else _SYNDROME_ACK))

    def _emit_rnr_nak(self, psn: int) -> None:
        self._rnr_nak_pending = False  # one RNR NAK per Send attempt
        if self.state is QpState.ERROR:
            return
        self.nic.send_control(self._packet(_ACK, psn, 0,
                                           syndrome=_SYNDROME_RNR_NAK))

    # ---- responder: Read requests -------------------------------------
    def _handle_read_request(self, packet: Packet) -> None:
        psn = packet.bth.psn
        reth = packet.reth
        if reth is None:
            return
        npkts = max(1, (reth.dma_length + self.mtu - 1) // self.mtu)
        if psn == self.epsn:
            self.epsn = psn_add(self.epsn, npkts)
            self._nak_sent_for_gap = False
            self._first_message_done = True
            self._cov_gbn.hit("read-in-order", self.sim.now)
            self._serve_read(psn, reth.dma_length, retransmit=False)
        elif psn_geq(psn, self.epsn):
            self.nic.counters.incr("out_of_sequence")
            if not self._nak_sent_for_gap:
                self._nak_sent_for_gap = True
                self._cov_gbn.hit("read-gap-nak", self.sim.now)
                self._rec.note(self.sim.now, "read-gap-nak",
                               f"psn={psn} epsn={self.epsn}")
                self._schedule_nak(self.epsn)
        else:
            # A re-issued (implied-NACK) or replayed Read request: serve
            # it again from the requested offset after the NACK-reaction
            # delay — this is the Fig. 9b latency.
            self.nic.counters.incr("duplicate_request")
            self._cov_gbn.hit("read-duplicate-retransmit", self.sim.now)
            self._rec.note(self.sim.now, "read-duplicate-retransmit",
                           f"psn={psn}")
            delay = self.nic.rng.jitter_ns(self.profile.nack_react_read_ns,
                                           self.profile.latency_jitter_frac)
            self.sim.schedule(delay, self._serve_read, psn, reth.dma_length, True)

    def _serve_read(self, first_psn: int, length: int, retransmit: bool) -> None:
        if self.state is QpState.ERROR:
            return
        npkts = max(1, (length + self.mtu - 1) // self.mtu)
        remaining = length
        append = self.pending_tx.append
        for i in range(npkts):
            payload = min(self.mtu, remaining)
            remaining -= payload
            opcode = _opcode_at(_READ_RESPONSE_SEQUENCE, i, npkts)
            # The last response carries an AETH (see _WIRE_OVERHEAD).
            syndrome = _SYNDROME_ACK if opcode in LAST_OPCODES else None
            if retransmit:
                self.nic.counters.incr("retransmitted_packets")
                self.nic._m_retrans.inc()
            append(self._packet(opcode, (first_psn + i) & PSN_MASK, payload,
                                syndrome=syndrome))
        self.nic.notify_tx()

    # ---- requester: ACK / NAK -----------------------------------------
    def _handle_ack(self, packet: Packet) -> None:
        aeth = packet.aeth
        if aeth is None:
            return
        psn = packet.bth.psn
        if aeth.is_ack:
            self._cov_gbn.hit("ack-advance", self.sim.now)
            self._advance_una(psn_add(psn, 1))
        elif aeth.is_rnr:
            # Receiver not ready: back off for the RNR timer, then
            # resend from the NAK'd PSN (a separate retry budget from
            # the transport retry count, per the IB spec).
            self.nic.counters.incr("rnr_nak_received")
            self._cov_gbn.hit("rnr-nak-received", self.sim.now)
            self._advance_una(psn)
            self._rnr_retry_count += 1
            if self._rnr_retry_count > self.rnr_retry_limit:
                self._cov_gbn.hit("rnr-retry-exceeded", self.sim.now)
                self._rec.note(self.sim.now, "rnr-retry-exceeded",
                               f"retries={self._rnr_retry_count}")
                self._enter_error()
                return
            if not self._react_pending:
                self._react_pending = True
                self._cov_gbn.hit("rnr-backoff", self.sim.now)
                self._rec.note(self.sim.now, "rnr-backoff",
                               f"psn={psn} timer={self.rnr_timer_ns}")
                self.sim.schedule(self.rnr_timer_ns, self._rewind_to, psn, False)
        elif aeth.is_nak:
            self.nic.counters.incr("packet_seq_err")
            self._cov_gbn.hit("nak-rewind", self.sim.now)
            self._rec.note(self.sim.now, "nak-rewind", f"psn={psn}")
            self._advance_una(psn)  # everything before the NAK'd PSN is in
            self._schedule_rewind(psn)

    def _advance_una(self, new_una: int) -> None:
        if not psn_geq(new_una, self.snd_una) or new_una == self.snd_una:
            return
        for psn in self._iter_psns(self.snd_una, new_una):
            self._templates.pop(psn, None)
        self.snd_una = new_una
        self._note_progress()
        completed = [m for m in self._messages
                     if psn_geq(new_una, psn_add(m.last_psn, 1))]
        for message in completed:
            self._messages.remove(message)
            self._complete(message.wr, message.posted_at)
        if not self._outstanding():
            self._cancel_timeout()

    @staticmethod
    def _iter_psns(start: int, end: int):
        psn = start
        while psn != end:
            yield psn
            psn = psn_add(psn, 1)

    def _schedule_rewind(self, psn: int) -> None:
        """Go-back-N after the profile's NACK reaction latency (Fig. 9a)."""
        if self._react_pending:
            return
        self._react_pending = True
        delay = self.nic.rng.jitter_ns(self.profile.nack_react_write_ns,
                                       self.profile.latency_jitter_frac)
        self.sim.schedule(delay, self._rewind_to, psn, False)

    def _rewind_to(self, psn: int, from_timeout: bool) -> None:
        self._react_pending = False
        if from_timeout:
            # A timeout starts a fresh recovery round; a new implied
            # NACK may be generated for whatever gap remains.
            self._read_nak_outstanding = False
            self._read_gap_pending = False
        if self.state is QpState.ERROR:
            return
        if not psn_geq(psn, self.snd_una):
            psn = self.snd_una
        # Drop never-sent copies queued beyond the rewind point; they
        # will be regenerated in order.
        self.pending_tx = deque(
            p for p in self.pending_tx
            if p.bth.opcode not in _PSN_STREAM_OPCODES
            or not psn_geq(p.bth.psn, psn)
        )
        cursor = psn
        while cursor != self.next_psn:
            template = self._templates.get(cursor)
            if template is not None:
                self.pending_tx.append(self._build_from_template(template))
                cursor = psn_add(cursor, 1)
                continue
            read_range = self._find_read_range(cursor)
            if read_range is not None:
                offset = psn_distance(cursor, read_range.first_psn) * self.mtu
                length = read_range.wr.length - offset
                self.pending_tx.append(self._build_read_request(
                    cursor, read_range.base_address + offset, read_range.rkey, length))
                cursor = psn_add(read_range.last_psn, 1)
                continue
            cursor = psn_add(cursor, 1)
        self._arm_timeout()
        self.nic.notify_tx()

    def _find_read_range(self, psn: int) -> Optional[_ReadRange]:
        for read_range in self._read_ranges:
            if psn_geq(psn, read_range.first_psn) and psn_geq(read_range.last_psn, psn):
                return read_range
        return None

    # ---- requester: Read responses --------------------------------------
    def _handle_read_response(self, packet: Packet) -> None:
        if self._expected_resp_psn is None or not self._read_ranges:
            return
        psn = packet.bth.psn
        expected = self._expected_resp_psn
        if psn == expected:
            self._cov_gbn.hit("read-response-in-order", self.sim.now)
            self._read_nak_outstanding = False
            self._expected_resp_psn = psn_add(psn, 1)
            self._note_progress()
            head = self._read_ranges[0]
            if psn == head.last_psn:
                self._read_ranges.popleft()
                self._complete(head.wr, head.posted_at)
                if self._read_ranges:
                    nxt = self._read_ranges[0]
                    if not psn_geq(self._expected_resp_psn, nxt.first_psn):
                        self._expected_resp_psn = nxt.first_psn
                else:
                    self._expected_resp_psn = None
                    if not self._outstanding():
                        self._cancel_timeout()
        elif psn_geq(psn, expected):
            # Out-of-order Read response: the "implied NACK" path. The
            # requester re-issues a Read request for the missing range
            # after the (vendor-specific) NACK generation delay — this
            # is the Fig. 8b latency, 83 ms on E810.
            self.nic.counters.incr("implied_nak_seq_err")
            if not self._read_nak_outstanding:
                self._cov_gbn.hit("read-implied-nak", self.sim.now)
                self._rec.note(self.sim.now, "read-implied-nak",
                               f"psn={psn} expected={expected}")
                self.nic.note_read_loss_event(self)
                # One implied NACK per gap (mirrors the responder's
                # one-NAK-per-gap rule); a re-dropped retransmission is
                # recovered by the timeout, as the IB spec prescribes.
                self._read_nak_outstanding = True
                self._read_gap_pending = True
                delay = self.nic.rng.jitter_ns(self.profile.nack_gen_read_ns,
                                               self.profile.latency_jitter_frac)
                self.sim.schedule(delay, self._reissue_read_from, expected)
        # Duplicates (psn < expected) are silently dropped.

    def _reissue_read_from(self, psn: int) -> None:
        self._read_gap_pending = False
        if self.state is QpState.ERROR:
            return
        if self._expected_resp_psn is None or psn != self._expected_resp_psn:
            return  # the gap healed in the meantime
        read_range = self._find_read_range(psn)
        if read_range is None:
            return
        offset = psn_distance(psn, read_range.first_psn) * self.mtu
        length = read_range.wr.length - offset
        self.pending_tx.appendleft(self._build_read_request(
            psn, read_range.base_address + offset, read_range.rkey, length))
        self._arm_timeout()
        self.nic.notify_tx()

    # ------------------------------------------------------------------
    # Retransmission timer (spec §12.7.38 semantics + adaptive mode §6.3)
    # ------------------------------------------------------------------
    @property
    def base_timeout_ns(self) -> int:
        """4.096 µs * 2^timeout, the IB minimum retransmission timeout."""
        return int(4096 * (2 ** self.timeout_cfg))

    def _current_timeout_ns(self) -> int:
        if not self.adaptive_retrans:
            return self.base_timeout_ns
        ladder = self.profile.adaptive_timeout_ladder
        if not ladder:
            return self.base_timeout_ns
        if self._adaptive_stage < len(ladder):
            factor = ladder[self._adaptive_stage]
        else:
            # Beyond the measured ladder the timeout keeps doubling.
            factor = ladder[-1] * (2 ** (self._adaptive_stage - len(ladder) + 1))
        return max(4096, int(self.base_timeout_ns * factor))

    def _allowed_retries(self) -> int:
        if not self.adaptive_retrans:
            return self.retry_cnt
        if self._adaptive_retry_budget is None:
            lo, hi = self.profile.adaptive_extra_retries
            self._adaptive_retry_budget = self.retry_cnt + self.nic.rng.randint(lo, hi)
        return self._adaptive_retry_budget

    def _outstanding(self) -> bool:
        return self.snd_una != self.next_psn or bool(self._read_ranges)

    def _note_progress(self) -> None:
        self._last_progress = self.sim.now
        self.retry_count = 0
        self._rnr_retry_count = 0
        self._adaptive_stage = 0
        if self._outstanding():
            self._arm_timeout()

    def _arm_timeout(self) -> None:
        if self._timeout_event is not None:
            return
        if not self._outstanding():
            return
        self._timeout_event = self.sim.schedule(self._current_timeout_ns(),
                                                self._timeout_fired)
        self.nic._m_timer_arm.inc()

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
            self.nic._m_timer_cancel.inc()

    def _timeout_fired(self) -> None:
        self._timeout_event = None
        if self.state is QpState.ERROR or not self._outstanding():
            return
        timeout = self._current_timeout_ns()
        elapsed = self.sim.now - self._last_progress
        if elapsed < timeout:
            # Progress happened since arming: re-arm for the remainder.
            self._cov_gbn.hit("timeout-rearm", self.sim.now)
            self._timeout_event = self.sim.schedule(timeout - elapsed, self._timeout_fired)
            return
        if self._read_gap_pending or self._react_pending:
            # The NIC is already in a loss-recovery slow path; hardware
            # defers the timer until that completes.
            self._cov_gbn.hit("timeout-deferred", self.sim.now)
            self._timeout_event = self.sim.schedule(timeout, self._timeout_fired)
            return
        self.nic.counters.incr("local_ack_timeout_err")
        self.nic._m_timeout.inc()
        self._cov_gbn.hit("timeout-retransmit", self.sim.now)
        self._rec.note(self.sim.now, "timeout-retransmit",
                       f"retry={self.retry_count + 1} psn={self.snd_una}")
        if self.nic._tel is not None:
            self.nic._tel.instant(
                "nic.retransmit", pid=self.nic.name,
                tid=f"qp-{self.qp_num:#x}", category="recovery",
                retry=self.retry_count + 1, psn=self.snd_una)
        self.retry_count += 1
        self._adaptive_stage += 1
        if self.retry_count > self._allowed_retries():
            self._cov_gbn.hit("retry-exceeded", self.sim.now)
            self._enter_error()
            return
        self._last_progress = self.sim.now
        rewind_psn = self.snd_una
        if self._read_ranges and self._expected_resp_psn is not None:
            head = self._read_ranges[0]
            if psn_geq(self._expected_resp_psn, head.first_psn) and \
                    not psn_geq(self._expected_resp_psn, psn_add(head.last_psn, 1)):
                rewind_psn = self._expected_resp_psn
        self._rewind_to(rewind_psn, True)

    def _enter_error(self) -> None:
        self.state = QpState.ERROR
        self.nic.counters.incr("qp_retry_exceeded")
        self._rec.note(self.sim.now, "qp-error",
                       f"retry={self.retry_count} "
                       f"rnr_retry={self._rnr_retry_count}")
        self._cancel_timeout()
        self.pending_tx.clear()
        for message in self._messages:
            self.cq.push(WorkCompletion(
                wr_id=message.wr.wr_id, verb=message.wr.verb,
                status=WcStatus.RETRY_EXC_ERR, qp_num=self.qp_num,
                length=message.wr.length, posted_at=message.posted_at,
                completed_at=self.sim.now,
            ))
        for read_range in self._read_ranges:
            self.cq.push(WorkCompletion(
                wr_id=read_range.wr.wr_id, verb=read_range.wr.verb,
                status=WcStatus.RETRY_EXC_ERR, qp_num=self.qp_num,
                length=read_range.wr.length, posted_at=read_range.posted_at,
                completed_at=self.sim.now,
            ))
        self._messages.clear()
        self._read_ranges.clear()

    def _complete(self, wr: WorkRequest, posted_at: int) -> None:
        self.bytes_completed += wr.length
        self.messages_completed += 1
        self.cq.push(WorkCompletion(
            wr_id=wr.wr_id, verb=wr.verb, status=WcStatus.SUCCESS,
            qp_num=self.qp_num, length=wr.length,
            posted_at=posted_at, completed_at=self.sim.now,
        ))

    @property
    def first_message_done(self) -> bool:
        """Responder-side: has a full message been received yet?

        The CX5 MigReq slow path stops applying to a QP once its first
        message completes (the NIC caches the connection, §6.2.3).
        """
        return self._first_message_done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QP {self.qp_num:#x} on {self.nic.name} state={self.state.value} "
                f"psn={self.next_psn} una={self.snd_una} epsn={self.epsn}>")
