"""The construct-then-patch packet path: the parity oracle for the QP builder.

Before the per-QP header template, a queue pair built every packet by
constructing the four base headers with their ``__init__`` (``_headers``),
patching PSN, ack-request, RETH or AETH onto the result, and then
setting IP total length and UDP length from the packet's wire size
(``_finalize_lengths``). A Read response LAST/ONLY got its AETH only
after the lengths were set, so its lengths and cached wire size leave
the AETH out. This module keeps that path so ``test_rnic_fastpath.py``
can check that ``QueuePair._packet`` builds the same packets. Nothing
in ``src/`` uses it.
"""

from repro.net.addressing import ROCEV2_UDP_PORT
from repro.net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    ECN_ECT0,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
)
from repro.net.packet import Packet
from repro.rdma.verbs import Verb


def headers(qp, payload_len, opcode):
    return Packet(
        EthernetHeader(qp.dest_mac, qp.nic.mac),
        Ipv4Header(qp.src_ip, qp.dest_ip, ecn=ECN_ECT0),
        UdpHeader(0xC000 | (qp.qp_num & 0x3FFF), ROCEV2_UDP_PORT),
        BaseTransportHeader(opcode, dest_qp=qp.dest_qp_num,
                            migreq=bool(qp.profile.migreq_initial)),
        payload_len=payload_len,
    )


def finalize_lengths(packet):
    total = packet.size - 14  # everything after Ethernet
    packet.ip.total_length = total
    packet.udp.length = total - 20
    return packet


def data_opcode(verb, index, total):
    if verb is Verb.SEND:
        if total == 1:
            return Opcode.SEND_ONLY
        if index == 0:
            return Opcode.SEND_FIRST
        return Opcode.SEND_LAST if index == total - 1 else Opcode.SEND_MIDDLE
    if total == 1:
        return Opcode.RDMA_WRITE_ONLY
    if index == 0:
        return Opcode.RDMA_WRITE_FIRST
    return (Opcode.RDMA_WRITE_LAST if index == total - 1
            else Opcode.RDMA_WRITE_MIDDLE)


def response_opcode(index, total):
    if total == 1:
        return Opcode.RDMA_READ_RESPONSE_ONLY
    if index == 0:
        return Opcode.RDMA_READ_RESPONSE_FIRST
    if index == total - 1:
        return Opcode.RDMA_READ_RESPONSE_LAST
    return Opcode.RDMA_READ_RESPONSE_MIDDLE


def message_packets(qp, wr, first_psn):
    """The packets ``post_send`` queues for a Send/Write work request."""
    npkts = max(1, (wr.length + qp.mtu - 1) // qp.mtu)
    remaining = wr.length
    packets = []
    for i in range(npkts):
        payload = min(qp.mtu, remaining)
        remaining -= payload
        packet = headers(qp, payload, data_opcode(wr.verb, i, npkts))
        packet.bth.psn = (first_psn + i) & 0xFFFFFF
        packet.bth.ack_request = i == npkts - 1
        if wr.verb is Verb.WRITE and i == 0:
            packet.reth = RdmaExtendedHeader(
                virtual_address=wr.remote_address, rkey=wr.remote_rkey,
                dma_length=wr.length)
        packets.append(finalize_lengths(packet))
    return packets


def read_request(qp, psn, address, rkey, length):
    packet = headers(qp, 0, Opcode.RDMA_READ_REQUEST)
    packet.bth.psn = psn
    packet.bth.ack_request = True
    packet.reth = RdmaExtendedHeader(virtual_address=address, rkey=rkey,
                                     dma_length=length)
    return finalize_lengths(packet)


def read_responses(qp, first_psn, length):
    """The packets ``_serve_read`` queues; the AETH goes on last."""
    npkts = max(1, (length + qp.mtu - 1) // qp.mtu)
    remaining = length
    packets = []
    for i in range(npkts):
        payload = min(qp.mtu, remaining)
        remaining -= payload
        packet = headers(qp, payload, response_opcode(i, npkts))
        packet.bth.psn = (first_psn + i) & 0xFFFFFF
        finalize_lengths(packet)
        if packet.bth.opcode in (Opcode.RDMA_READ_RESPONSE_LAST,
                                 Opcode.RDMA_READ_RESPONSE_ONLY):
            packet.aeth = AckExtendedHeader.ack(qp.msn)
        packets.append(packet)
    return packets


def ack(qp, psn, nak=False):
    packet = headers(qp, 0, Opcode.ACKNOWLEDGE)
    packet.bth.psn = psn
    packet.aeth = (AckExtendedHeader.nak_sequence_error(qp.msn) if nak
                   else AckExtendedHeader.ack(qp.msn))
    return finalize_lengths(packet)


def rnr_nak(qp, psn):
    packet = headers(qp, 0, Opcode.ACKNOWLEDGE)
    packet.bth.psn = psn
    packet.aeth = AckExtendedHeader.rnr_nak(msn=qp.msn)
    return finalize_lengths(packet)


def cnp(qp):
    packet = headers(qp, 0, Opcode.CNP)
    packet.bth.psn = 0
    return finalize_lengths(packet)
