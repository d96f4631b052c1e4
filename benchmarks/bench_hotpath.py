"""Packet hot-path microbenchmarks and the perf-regression gate.

Measures the three layers every simulated packet pays for — header
serialization (+iCRC), raw CRC folding, and engine event dispatch —
the measurement plane's capture path (mirror → dumper record → TERM →
trace reconstruction → every header read), plus one end-to-end
``run_test`` on the parallel-scaling workload, and writes a canonical
``BENCH_hotpath.json``.

Run as a script (no pytest needed):

    python benchmarks/bench_hotpath.py                  # measure + write results/
    python benchmarks/bench_hotpath.py --check          # gate vs committed baseline
    python benchmarks/bench_hotpath.py --update-baseline  # refresh the committed file

``--check`` compares every section's throughput metric against the
committed ``benchmarks/BENCH_hotpath.json`` and exits 1 on a >25%
regression — the CI ``perf`` job runs exactly this. The committed file
also records the pre-refactor (PR 6) numbers measured with the
interpreted ``struct.pack``/dict-``Packet``/pure-Python-CRC hot path,
so the speedup trajectory stays auditable, and ``capture_before_frames``
holds the capture section run on the clone-and-reparse capture path
that capture frames replaced, measured on the same host as the
committed ``capture`` number.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINE_PATH = BENCH_DIR / "BENCH_hotpath.json"

sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro import quick_config  # noqa: E402
from repro.api import run_test  # noqa: E402
from repro.core.trace import reconstruct_trace  # noqa: E402
from repro.dumper.server import DumperServer  # noqa: E402
from repro.net.checksum import crc32_ib, icrc_for  # noqa: E402
from repro.net.headers import (  # noqa: E402
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
)
from repro.net.link import Node, connect, gbps  # noqa: E402
from repro.net.packet import EventType, Packet  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.rng import SimRandom  # noqa: E402
from repro.switch.mirror import MirrorBlock  # noqa: E402

#: Allowed slowdown vs the committed baseline before --check fails.
TOLERANCE = 0.25

#: Payload length used by the pack+iCRC microbenchmark (a typical MTU
#: fragment; the zero-fold over it dominates an uncached pure-Python
#: iCRC, which is exactly the cost the zlib backend removes).
PACK_PAYLOAD_LEN = 1024


# ----------------------------------------------------------------------
# Section 1: header pack + iCRC (fresh packet each time: no wire cache)
# ----------------------------------------------------------------------
def _fresh_packet(i: int) -> Packet:
    """A representative packet; cycles data/read-response/ACK shapes."""
    shape = i % 3
    bth = BaseTransportHeader(
        opcode=(Opcode.RDMA_WRITE_ONLY, Opcode.RDMA_READ_RESPONSE_ONLY,
                Opcode.ACKNOWLEDGE)[shape],
        dest_qp=0x100 + (i & 0xFF), psn=i & 0xFFFFFF,
        ack_request=shape == 0,
    )
    return Packet(
        eth=EthernetHeader(dst_mac=0x02AABB000001, src_mac=0x02AABB000002),
        ip=Ipv4Header(src_ip=0x0A000001, dst_ip=0x0A000002,
                      total_length=20 + 8 + 12 + PACK_PAYLOAD_LEN),
        udp=UdpHeader(src_port=0xC000 + (i & 0xFF)),
        bth=bth,
        reth=RdmaExtendedHeader(virtual_address=0x7F00_0000_0000 + i,
                                rkey=0x1EE7, dma_length=PACK_PAYLOAD_LEN)
        if shape == 0 else None,
        aeth=AckExtendedHeader.ack(msn=i & 0xFFFFFF) if shape else None,
        payload_len=PACK_PAYLOAD_LEN if shape != 2 else 0,
    )


def bench_pack_icrc(n: int = 20_000, repeats: int = 3) -> dict:
    best = float("inf")
    for _ in range(repeats):
        icrc_for.cache_clear()
        start = time.perf_counter()
        for i in range(n):
            packet = _fresh_packet(i)
            packet.pack_headers()
            packet.icrc()
        best = min(best, time.perf_counter() - start)
    return {"packets_per_sec": round(n / best, 1), "n": n,
            "payload_len": PACK_PAYLOAD_LEN, "seconds": round(best, 4)}


# ----------------------------------------------------------------------
# Section 2: raw CRC fold throughput
# ----------------------------------------------------------------------
def bench_crc32(buf_len: int = 4096, n: int = 2_000, repeats: int = 3) -> dict:
    buf = bytes(range(256)) * (buf_len // 256)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            crc32_ib(buf)
        best = min(best, time.perf_counter() - start)
    mb = n * buf_len / (1024 * 1024)
    return {"mb_per_sec": round(mb / best, 2), "buf_len": buf_len, "n": n}


# ----------------------------------------------------------------------
# Section 3: engine dispatch (serialization-delay + same-tick pattern)
# ----------------------------------------------------------------------
def _engine_workload(n_events: int) -> float:
    """Events/sec for a link-like schedule mix.

    64 hop chains reschedule themselves at small distinct delays (the
    per-link serialization pattern), and every fourth hop fans out two
    zero-delay events (pipeline hand-offs on the same tick).
    """
    sim = Simulator()
    budget = [n_events]

    def noop() -> None:
        pass

    def hop(delay: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        sim.schedule(delay, hop, 40 + (delay * 7 + 13) % 211)
        if budget[0] % 4 == 0:
            sim.schedule(0, noop)
            sim.schedule(0, noop)
    for lane in range(64):
        sim.schedule(lane, hop, 40 + lane % 13)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed / elapsed


def bench_engine(n_events: int = 200_000, repeats: int = 3) -> dict:
    best = max(_engine_workload(n_events) for _ in range(repeats))
    return {"events_per_sec": round(best, 1), "n_events": n_events}


# ----------------------------------------------------------------------
# Section 4: capture path — mirror, dumper record, TERM, trace, headers
# ----------------------------------------------------------------------
#: Event codes stamped into the mirrored train, cycled per packet.
_CAPTURE_EVENTS = (EventType.NONE,) * 13 + (EventType.DROP, EventType.ECN,
                                             EventType.CORRUPT)


def _capture_train(n: int) -> list:
    """A fixed train: per QP, a write message plus its ACK, read and CNP."""
    packets = []
    for i in range(n):
        shape = i % 8
        opcode = (Opcode.RDMA_WRITE_FIRST, Opcode.RDMA_WRITE_MIDDLE,
                  Opcode.RDMA_WRITE_MIDDLE, Opcode.RDMA_WRITE_LAST,
                  Opcode.ACKNOWLEDGE, Opcode.RDMA_READ_REQUEST,
                  Opcode.RDMA_READ_RESPONSE_ONLY, Opcode.CNP)[shape]
        payload = (PACK_PAYLOAD_LEN if shape in (0, 1, 2, 3, 6)
                   else 16 if shape == 7 else 0)
        packet = Packet(
            ip=Ipv4Header(src_ip=0x0A000001 + (shape in (4, 6)),
                          dst_ip=0x0A000002 - (shape in (4, 6))),
            udp=UdpHeader(src_port=0xC000 + (i >> 3) % 4),
            bth=BaseTransportHeader(opcode=opcode, dest_qp=0x100 + (i >> 3) % 4,
                                    psn=i & 0xFFFFFF, ack_request=shape == 3),
            reth=RdmaExtendedHeader(virtual_address=0x7F00_0000_0000 + i,
                                    rkey=0x1EE7, dma_length=4 * PACK_PAYLOAD_LEN)
            if shape in (0, 5) else None,
            aeth=AckExtendedHeader.ack(msn=i & 0xFFFFFF)
            if shape in (4, 6) else None,
            payload_len=payload,
        )
        packet.ip.total_length = packet.size - 14
        packet.udp.length = packet.ip.total_length - 20
        packets.append(packet)
    return packets


def _capture_once(packets: list) -> int:
    """Mirror ``packets`` into one dumper, TERM, rebuild, read all headers."""
    sim = Simulator()
    switch = Node(sim, "sw")
    dumper = DumperServer(sim, "d0", gbps(100), ring_slots=len(packets))
    mirror = MirrorBlock(SimRandom(1))
    out = switch.add_port(gbps(100))
    connect(out, dumper.port, 0)
    mirror.add_target(out)
    events = _CAPTURE_EVENTS
    for i, packet in enumerate(packets):
        mirror.mirror(packet, i * 100, events[i % len(events)])
    sim.run()
    trace = reconstruct_trace(dumper.terminate(),
                              expected_packets=mirror.mirrored_packets)
    fields = 0
    for pkt in trace:
        record = pkt.record
        fields += (record.eth.src_mac + record.ip.src_ip + record.udp.dst_port
                   + record.bth.psn)
        if record.reth is not None:
            fields += record.reth.dma_length
        if record.aeth is not None:
            fields += record.aeth.msn
    if len(trace) != len(packets):
        raise RuntimeError(f"capture lost packets: {len(trace)} of {len(packets)}")
    return fields


def bench_capture(n: int = 6_000, repeats: int = 5) -> dict:
    packets = _capture_train(n)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _capture_once(packets)
        best = min(best, time.perf_counter() - start)
    return {"packets_per_sec": round(n / best, 1), "n": n,
            "seconds": round(best, 4)}


# ----------------------------------------------------------------------
# Section 5: end to end — the bench_parallel_scaling workload
# ----------------------------------------------------------------------
def bench_e2e(repeats: int = 3) -> dict:
    config = quick_config(nic="e810", verb="write", num_msgs=10,
                          message_size=102400, num_connections=2)
    best = float("inf")
    packets = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_test(config)
        best = min(best, time.perf_counter() - start)
        packets = len(result.trace)
    return {"packets_per_sec": round(packets / best, 1),
            "seconds": round(best, 4), "trace_packets": packets,
            "workload": {"nic": "e810", "verb": "write", "num_msgs": 10,
                         "message_size": 102400, "num_connections": 2}}


#: section name -> (metric key, pretty unit)
SECTIONS = {
    "pack_icrc": (bench_pack_icrc, "packets_per_sec", "pkt/s"),
    "crc32": (bench_crc32, "mb_per_sec", "MiB/s"),
    "engine": (bench_engine, "events_per_sec", "ev/s"),
    "capture": (bench_capture, "packets_per_sec", "pkt/s"),
    "e2e": (bench_e2e, "packets_per_sec", "pkt/s"),
}


def measure() -> dict:
    sections = {}
    for name, (fn, _metric, _unit) in SECTIONS.items():
        sections[name] = fn()
    return {"schema": 1, "sections": sections}


def render(payload: dict, baseline: dict = None) -> str:
    lines = [f"{'section':<12s} {'throughput':>14s}  unit"
             + ("        vs baseline" if baseline else "")]
    for name, (_fn, metric, unit) in SECTIONS.items():
        value = payload["sections"][name][metric]
        row = f"{name:<12s} {value:>14,.1f}  {unit}"
        ref = (baseline or {}).get("sections", {}).get(name, {}).get(metric)
        if ref:
            row += f"  {value / ref:>8.2f}x of {ref:,.1f}"
        lines.append(row)
    return "\n".join(lines)


def check(fresh: dict, baseline: dict) -> list:
    """Metric regressions beyond TOLERANCE, as human-readable strings."""
    failures = []
    for name, (_fn, metric, unit) in SECTIONS.items():
        ref = baseline["sections"].get(name, {}).get(metric)
        if ref is None:
            continue
        value = fresh["sections"][name][metric]
        floor = ref * (1.0 - TOLERANCE)
        if value < floor:
            failures.append(
                f"{name}: {value:,.1f} {unit} is below the regression "
                f"floor {floor:,.1f} (baseline {ref:,.1f}, -{TOLERANCE:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on >25%% regression vs the committed "
                             "baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite benchmarks/BENCH_hotpath.json")
    args = parser.parse_args(argv)

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    fresh = measure()
    if baseline is not None and "capture_before_frames" in baseline:
        fresh["capture_before_frames"] = baseline["capture_before_frames"]
    if baseline is not None and "pre_refactor" in baseline:
        fresh["pre_refactor"] = baseline["pre_refactor"]
        fresh["speedup_vs_pre_refactor"] = {
            name: round(fresh["sections"][name][metric]
                        / baseline["pre_refactor"][name][metric], 2)
            for name, (_fn, metric, _unit) in SECTIONS.items()
            if name in baseline["pre_refactor"]
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_hotpath.json"
    out.write_text(json.dumps(fresh, indent=2) + "\n")
    print(render(fresh, baseline))
    if "speedup_vs_pre_refactor" in fresh:
        pretty = ", ".join(f"{k} {v:.2f}x"
                           for k, v in fresh["speedup_vs_pre_refactor"].items())
        print(f"speedup vs pre-refactor hot path: {pretty}")
    print(f"wrote {out}")

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"updated {BASELINE_PATH}")
        return 0
    if args.check:
        if baseline is None:
            print("no committed baseline to check against", file=sys.stderr)
            return 1
        failures = check(fresh, baseline)
        for failure in failures:
            print(f"PERF REGRESSION — {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"perf gate OK (tolerance {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
