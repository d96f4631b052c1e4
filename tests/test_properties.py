"""Property-based tests (hypothesis) for core data structures/invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.config import DataPacketEvent, TrafficConfig
from repro.core.fuzz.mutate import mutate
from repro.core.trace import reconstruct_trace
from repro.dumper.records import DumpRecord, parse_record
from repro.net.capture import capture_frame
from repro.net.addressing import int_to_ip, int_to_mac, ip_to_int, mac_to_int
from repro.net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
)
from repro.net.packet import Packet
from repro.rdma.qp import psn_add, psn_distance, psn_geq
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.switch.itertrack import IterTracker

psn_values = st.integers(min_value=0, max_value=0xFFFFFF)
mac_values = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF)
ip_values = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestHeaderRoundtrips:
    @given(dst=mac_values, src=mac_values,
           ethertype=st.integers(0, 0xFFFF))
    def test_ethernet(self, dst, src, ethertype):
        header = EthernetHeader(dst_mac=dst, src_mac=src, ethertype=ethertype)
        assert EthernetHeader.unpack(header.pack()) == header

    @given(src=ip_values, dst=ip_values, length=st.integers(20, 0xFFFF),
           ttl=st.integers(0, 255), dscp=st.integers(0, 63),
           ecn=st.integers(0, 3), ident=st.integers(0, 0xFFFF))
    def test_ipv4(self, src, dst, length, ttl, dscp, ecn, ident):
        header = Ipv4Header(src_ip=src, dst_ip=dst, total_length=length,
                            ttl=ttl, dscp=dscp, ecn=ecn, identification=ident)
        assert Ipv4Header.unpack(header.pack()) == header

    @given(src=st.integers(0, 0xFFFF), dst=st.integers(0, 0xFFFF),
           length=st.integers(8, 0xFFFF))
    def test_udp(self, src, dst, length):
        header = UdpHeader(src_port=src, dst_port=dst, length=length)
        assert UdpHeader.unpack(header.pack()) == header

    @given(opcode=st.sampled_from(list(Opcode)), solicited=st.booleans(),
           migreq=st.booleans(), pad=st.integers(0, 3),
           pkey=st.integers(0, 0xFFFF), qp=st.integers(0, 0xFFFFFF),
           ack=st.booleans(), psn=psn_values, becn=st.booleans())
    def test_bth(self, opcode, solicited, migreq, pad, pkey, qp, ack, psn, becn):
        header = BaseTransportHeader(
            opcode=opcode, solicited=solicited, migreq=migreq, pad_count=pad,
            pkey=pkey, dest_qp=qp, ack_request=ack, psn=psn, becn=becn)
        assert BaseTransportHeader.unpack(header.pack()) == header

    @given(va=st.integers(0, 2**64 - 1), rkey=st.integers(0, 2**32 - 1),
           length=st.integers(0, 2**32 - 1))
    def test_reth(self, va, rkey, length):
        header = RdmaExtendedHeader(virtual_address=va, rkey=rkey,
                                    dma_length=length)
        assert RdmaExtendedHeader.unpack(header.pack()) == header

    @given(syndrome=st.integers(0, 255), msn=psn_values)
    def test_aeth(self, syndrome, msn):
        header = AckExtendedHeader(syndrome=syndrome, msn=msn)
        assert AckExtendedHeader.unpack(header.pack()) == header

    @given(mac=mac_values)
    def test_mac_string_roundtrip(self, mac):
        assert mac_to_int(int_to_mac(mac)) == mac

    @given(ip=ip_values)
    def test_ip_string_roundtrip(self, ip):
        assert ip_to_int(int_to_ip(ip)) == ip


class TestPsnArithmetic:
    @given(psn=psn_values, delta=st.integers(0, 0xFFFFFF))
    def test_add_stays_in_24_bits(self, psn, delta):
        assert 0 <= psn_add(psn, delta) <= 0xFFFFFF

    @given(psn=psn_values, delta=st.integers(0, 1 << 22))
    def test_distance_inverts_add(self, psn, delta):
        assert psn_distance(psn_add(psn, delta), psn) == delta

    @given(psn=psn_values)
    def test_geq_reflexive(self, psn):
        assert psn_geq(psn, psn)

    @given(psn=psn_values, delta=st.integers(1, (1 << 23) - 1))
    def test_geq_orders_within_window(self, psn, delta):
        later = psn_add(psn, delta)
        assert psn_geq(later, psn)
        assert not psn_geq(psn, later)


#: PSN streams as the Fig. 3 algorithm is defined on them: a start
#: point plus bounded steps (forward progress and Go-back-N rewinds).
#: Unconstrained 24-bit jumps break the uniqueness claim in two ways no
#: tracker can repair: a rewind of >= 2^23 reads as forward progress
#: (serial-number ambiguity, forbidden by the IB transport window), and
#: a stream whose forward travel wraps the whole 2^24 space revisits
#: PSNs at an unchanged ITER — so forward steps are kept small enough
#: that 59 of them cannot complete a wrap.
_psn_steps = st.integers(min_value=-(1 << 22), max_value=(1 << 17))


@st.composite
def psn_streams(draw):
    start = draw(psn_values)
    steps = draw(st.lists(_psn_steps, min_size=0, max_size=59))
    psns = [start]
    for step in steps:
        psns.append((psns[-1] + step) & 0xFFFFFF)
    return psns


class TestIterTrackerInvariants:
    @given(psns=psn_streams())
    def test_psn_iter_pairs_unique_per_connection(self, psns):
        # §3.3: (PSN, ITER) uniquely identifies every packet.
        tracker = IterTracker()
        seen = set()
        for psn in psns:
            iteration = tracker.update(1, 2, 3, psn)
            assert (psn, iteration) not in seen
            seen.add((psn, iteration))

    @given(psns=st.lists(psn_values, min_size=1, max_size=60))
    def test_iter_monotone_nondecreasing(self, psns):
        tracker = IterTracker()
        iters = [tracker.update(1, 2, 3, psn) for psn in psns]
        assert all(b >= a for a, b in zip(iters, iters[1:]))
        assert iters[0] == 1

    @given(start=psn_values, count=st.integers(1, 200))
    def test_monotone_stream_stays_iter_one(self, start, count):
        tracker = IterTracker()
        for i in range(count):
            assert tracker.update(1, 2, 3, psn_add(start, i)) == 1


class TestEngineInvariants:
    @given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
    def test_callbacks_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=st.lists(st.integers(0, 1000), min_size=1, max_size=30),
           until=st.integers(0, 1500))
    def test_run_until_never_executes_late_events(self, delays, until):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(until=until)
        assert all(d <= until for d in fired)
        assert sorted(fired) == sorted(d for d in delays if d <= until)


class TestRecordRoundtrip:
    @given(psn=psn_values, qpn=st.integers(0, 0xFFFFFF),
           seq=st.integers(0, 2**32), stamp=st.integers(0, 2**40),
           payload=st.integers(0, 1024), event=st.integers(0, 4))
    @settings(max_examples=50)
    def test_parse_inverts_make(self, psn, qpn, seq, stamp, payload, event):
        packet = Packet(
            ip=Ipv4Header(src_ip=1, dst_ip=2),
            udp=UdpHeader(src_port=100, dst_port=4791),
            bth=BaseTransportHeader(opcode=Opcode.SEND_ONLY, dest_qp=qpn,
                                    psn=psn),
            payload_len=payload,
        )
        packet.ip.total_length = packet.size - 14
        packet.udp.length = packet.ip.total_length - 20
        frame = capture_frame(packet, seq, stamp, event, 4791)
        parsed = parse_record(DumpRecord(frame.raw, 5, "d", 0))
        assert parsed.psn == psn
        assert parsed.dest_qp == qpn
        assert parsed.mirror_seq == seq
        assert parsed.switch_timestamp_ns == stamp
        assert parsed.event_type == event
        assert parsed.payload_len == payload


class TestTraceReconstruction:
    @given(order=st.permutations(list(range(12))))
    @settings(max_examples=30)
    def test_reconstruction_invariant_under_arrival_order(self, order):
        # §3.5: sorting by mirror sequence recovers the wire order no
        # matter how records are scattered across dumpers.
        def record(seq):
            packet = Packet(
                ip=Ipv4Header(src_ip=1, dst_ip=2),
                udp=UdpHeader(dst_port=4791),
                bth=BaseTransportHeader(opcode=Opcode.SEND_ONLY, dest_qp=3,
                                        psn=100 + seq),
                payload_len=10,
            )
            packet.ip.total_length = packet.size - 14
            packet.udp.length = packet.ip.total_length - 20
            frame = capture_frame(packet, seq, seq * 10, 0, 4791)
            return DumpRecord(frame.raw, seq, "d", 0)

        shuffled = [record(i) for i in order]
        trace = reconstruct_trace(shuffled)
        assert [p.mirror_seq for p in trace] == list(range(12))
        assert [p.psn for p in trace] == [100 + i for i in range(12)]


class TestRandomness:
    @given(seed=st.integers(0, 2**31), base=st.integers(1, 10**9),
           frac=st.floats(0.0, 0.5, allow_nan=False))
    @settings(max_examples=100)
    def test_jitter_bounds(self, seed, base, frac):
        value = SimRandom(seed).jitter_ns(base, frac)
        assert 0 <= value
        assert abs(value - base) <= base * frac + 1


class TestMutationValidity:
    @given(seed=st.integers(0, 10_000), rounds=st.integers(1, 10))
    @settings(max_examples=50)
    def test_mutate_never_produces_invalid_config(self, seed, rounds):
        traffic = TrafficConfig(num_connections=4, message_size=10240,
                                data_pkt_events=(DataPacketEvent(1, 5, "drop"),))
        mutated = mutate(traffic, SimRandom(seed), rounds=rounds)
        # Construction succeeding means all invariants held; double-check
        # the cross-field ones the orchestrator relies on.
        for event in mutated.data_pkt_events:
            assert 1 <= event.qpn <= mutated.num_connections
            assert 1 <= event.psn <= mutated.packets_per_connection
