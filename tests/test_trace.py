"""Unit tests for trace reconstruction and the integrity check (§3.5)."""

import pytest

from repro.core.trace import TraceGap, check_integrity, reconstruct_trace
from repro.dumper.records import DumpRecord
from repro.net.capture import capture_frame
from repro.net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    Ipv4Header,
    Opcode,
    UdpHeader,
)
from repro.net.packet import EventType, Packet


def mirrored(seq, psn, timestamp=None, opcode=Opcode.SEND_ONLY,
             event=EventType.NONE, src=1, dst=2, qpn=9):
    packet = Packet(
        ip=Ipv4Header(src_ip=src, dst_ip=dst),
        udp=UdpHeader(src_port=0xC000, dst_port=4791),
        bth=BaseTransportHeader(opcode=opcode, dest_qp=qpn, psn=psn),
        payload_len=64,
    )
    if opcode == Opcode.ACKNOWLEDGE:
        packet.aeth = AckExtendedHeader.ack()
    packet.ip.total_length = packet.size - 14
    packet.udp.length = packet.ip.total_length - 20
    frame = capture_frame(packet, seq,
                          timestamp if timestamp is not None else seq * 100,
                          event, 4791)
    return DumpRecord(frame.raw, rx_time_ns=seq, server="d0", core=0)


class TestReconstruction:
    def test_records_sorted_by_mirror_seq(self):
        records = [mirrored(2, 12), mirrored(0, 10), mirrored(1, 11)]
        trace = reconstruct_trace(records)
        assert [p.mirror_seq for p in trace] == [0, 1, 2]
        assert [p.psn for p in trace] == [10, 11, 12]

    def test_iters_rederived_from_psn_stream(self):
        # 10 11 12 | 11 12 -> ITERs 1 1 1 2 2 (offline Fig. 3 replay).
        records = [mirrored(i, psn) for i, psn in
                   enumerate([10, 11, 12, 11, 12])]
        trace = reconstruct_trace(records)
        assert [p.iteration for p in trace] == [1, 1, 1, 2, 2]

    def test_iters_tracked_per_connection(self):
        records = [
            mirrored(0, 10, qpn=1),
            mirrored(1, 10, qpn=2),
            mirrored(2, 10, qpn=1),  # retransmission on conn 1 only
        ]
        trace = reconstruct_trace(records)
        assert [p.iteration for p in trace] == [1, 1, 2]

    def test_helpers(self):
        records = [
            mirrored(0, 10),
            mirrored(1, 11, event=EventType.DROP),
            mirrored(2, 100, opcode=Opcode.ACKNOWLEDGE, src=2, dst=1),
        ]
        trace = reconstruct_trace(records)
        assert len(trace) == 3
        assert len(trace.connections()) == 2
        assert len(trace.data_packets()) == 2
        assert len(trace.acks()) == 1
        assert trace.packets[1].was_dropped
        assert not trace.packets[0].was_dropped

    def test_find_by_psn_and_iteration(self):
        records = [mirrored(i, psn) for i, psn in enumerate([10, 11, 10])]
        trace = reconstruct_trace(records)
        first = trace.find((1, 2, 9), 10, 1)
        retrans = trace.find((1, 2, 9), 10, 2)
        assert first.mirror_seq == 0
        assert retrans.mirror_seq == 2
        assert trace.find((1, 2, 9), 10, 3) is None

    def test_empty_trace(self):
        trace = reconstruct_trace([])
        assert len(trace) == 0
        assert trace.connections() == []
        assert trace.find((1, 2, 9), 10) is None

    def test_for_connection_preserves_trace_order(self):
        records = [
            mirrored(0, 10, qpn=1),
            mirrored(1, 50, qpn=2),
            mirrored(2, 11, qpn=1),
            mirrored(3, 10, qpn=1),  # retransmission, later in the trace
        ]
        trace = reconstruct_trace(records)
        conn1 = trace.for_connection((1, 2, 1))
        assert [p.mirror_seq for p in conn1] == [0, 2, 3]
        assert [p.mirror_seq for p in trace.for_connection((1, 2, 2))] == [1]
        assert trace.for_connection((9, 9, 9)) == []

    def test_find_returns_first_match(self):
        # Two packets with the same (conn, PSN, ITER) identity: find()
        # must return the earlier one, like the original linear scan.
        records = [mirrored(0, 10), mirrored(1, 11), mirrored(2, 11)]
        trace = reconstruct_trace(records)
        trace.packets[2].iteration = 1  # force an identity collision
        assert trace.find((1, 2, 9), 11, 1).mirror_seq == 1


class TestIntegrity:
    def _counters(self, mirrored_count, roce_rx):
        return {"mirrored_packets": mirrored_count, "roce_rx_packets": roce_rx}

    def test_complete_trace_passes(self):
        trace = reconstruct_trace([mirrored(i, 10 + i) for i in range(4)])
        report = check_integrity(trace, self._counters(4, 4))
        assert report.ok
        assert report.seq_consecutive
        assert report.mirror_count_matches
        assert report.roce_count_matches
        assert "PASS" in report.summary()

    def test_missing_sequence_fails_condition_1(self):
        records = [mirrored(i, 10 + i) for i in (0, 1, 3)]  # seq 2 missing
        trace = reconstruct_trace(records)
        report = check_integrity(trace, self._counters(4, 4))
        assert not report.ok
        assert not report.seq_consecutive
        assert 2 in report.missing_seqs

    def test_mirror_count_mismatch_fails_condition_2(self):
        trace = reconstruct_trace([mirrored(i, 10 + i) for i in range(3)])
        report = check_integrity(trace, self._counters(5, 3))
        assert not report.mirror_count_matches
        assert report.roce_count_matches
        assert not report.ok

    def test_roce_count_mismatch_fails_condition_3(self):
        trace = reconstruct_trace([mirrored(i, 10 + i) for i in range(3)])
        report = check_integrity(trace, self._counters(3, 7))
        assert report.mirror_count_matches
        assert not report.roce_count_matches

    def test_empty_trace_with_zero_counters_passes(self):
        report = check_integrity(reconstruct_trace([]), self._counters(0, 0))
        assert report.ok

    # Regression: ``missing`` used to be computed against the *trace's*
    # own max seq, so losses at the tail (or an entirely lost capture)
    # produced missing=[] and hid the damage behind the blunt count
    # mismatch. The switch's mirrored count is the ground truth.
    def test_head_loss_missing_seqs(self):
        records = [mirrored(i, 10 + i) for i in (2, 3)]  # seqs 0, 1 lost
        report = check_integrity(reconstruct_trace(records),
                                 self._counters(4, 4))
        assert not report.ok
        assert report.missing_seqs == [0, 1]

    def test_middle_loss_missing_seqs(self):
        records = [mirrored(i, 10 + i) for i in (0, 3)]
        report = check_integrity(reconstruct_trace(records),
                                 self._counters(4, 4))
        assert report.missing_seqs == [1, 2]

    def test_tail_loss_missing_seqs(self):
        records = [mirrored(i, 10 + i) for i in (0, 1)]  # seqs 2, 3 lost
        report = check_integrity(reconstruct_trace(records),
                                 self._counters(4, 4))
        assert not report.ok
        assert report.missing_seqs == [2, 3]

    def test_fully_lost_capture_reports_every_seq(self):
        report = check_integrity(reconstruct_trace([]), self._counters(3, 3))
        assert not report.ok
        assert report.missing_seqs == [0, 1, 2]


class TestGaps:
    def test_complete_trace_has_no_gaps(self):
        trace = reconstruct_trace([mirrored(i, 10 + i) for i in range(4)],
                                  expected_packets=4)
        assert not trace.has_gaps
        assert trace.gaps == []
        assert trace.coverage == 1.0

    def test_interior_gap_annotated_with_timestamps(self):
        records = [mirrored(i, 10 + i, timestamp=i * 1000) for i in (0, 3)]
        trace = reconstruct_trace(records, expected_packets=4)
        assert len(trace.gaps) == 1
        gap = trace.gaps[0]
        assert (gap.first_seq, gap.last_seq) == (1, 2)
        assert gap.count == 2
        assert gap.before_ns == 0
        assert gap.after_ns == 3000
        assert trace.coverage == pytest.approx(0.5)

    def test_tail_gap_needs_expected_count(self):
        records = [mirrored(i, 10 + i) for i in (0, 1)]
        assert not reconstruct_trace(records).has_gaps
        trace = reconstruct_trace(records, expected_packets=4)
        assert len(trace.gaps) == 1
        assert (trace.gaps[0].first_seq, trace.gaps[0].last_seq) == (2, 3)
        assert trace.gaps[0].after_ns is None

    def test_gap_overlap_window(self):
        gap = TraceGap(first_seq=1, last_seq=2, before_ns=100, after_ns=500)
        assert gap.overlaps(200, 300)
        assert gap.overlaps(0, 150)
        assert not gap.overlaps(600, 900)
        assert not gap.overlaps(0, 99)
        # Open bounds are conservative: unknown extent always overlaps.
        tail = TraceGap(first_seq=5, last_seq=6, before_ns=100, after_ns=None)
        assert tail.overlaps(1_000_000, 2_000_000)

    def test_conn_coverage(self):
        records = [
            mirrored(0, 10, timestamp=100, qpn=1),
            mirrored(1, 20, timestamp=200, qpn=2),
            mirrored(3, 11, timestamp=400, qpn=1),  # seq 2 lost
        ]
        trace = reconstruct_trace(records, expected_packets=4)
        assert trace.has_gaps
        # Both live connections span the gap window, and an unseen
        # connection may have lived entirely inside the hole.
        assert not trace.conn_coverage_ok((1, 2, 1))
        assert not trace.conn_coverage_ok((9, 9, 9))
        clean = reconstruct_trace([mirrored(i, 10 + i) for i in range(3)],
                                  expected_packets=3)
        assert clean.conn_coverage_ok((1, 2, 9))
