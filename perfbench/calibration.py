"""Host-speed calibration: a fixed probe timed between op segments.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes. Every timed segment of an op is bracketed by a
probe — a fixed piece of pure-Python work (heap, dict, struct and CRC
operations, the mix the simulator's hot path uses) that imports
nothing from the program under test — and the segment's time is
scaled by ``PROBE_REF_S`` over the probe's mean time around it. A
faster or slower program moves the scaled time exactly as much as the
raw one; a faster or slower host moves both the segment and the probe,
and largely cancels.
Scaled times read as seconds on a host where one probe takes
``PROBE_REF_S``.
"""

from __future__ import annotations

import heapq
import struct
import time
import zlib

#: Probe time, in seconds, of the reference host scaled times refer to.
PROBE_REF_S = 0.004
#: Repetitions per probe; the fastest one counts.
PROBE_REPEATS = 3

_pack = struct.Struct("!QIH").pack


def _kernel(n: int = 4000) -> int:
    heap = []
    table = {}
    acc = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 255] = i
        if len(heap) > 64:
            when, seq = heapq.heappop(heap)
            acc ^= zlib.crc32(_pack(when, seq, i & 0xFFFF))
    return acc + len(table)


def probe() -> float:
    """Seconds the probe takes on the host right now."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor turning a raw time measured between two probes into scaled time."""
    return PROBE_REF_S / ((before + after) / 2)


class ScaledClock:
    """Times an op's segments, each scaled by the probes around it.

    ``start()`` marks the start of an op; ``lap()`` ends a segment,
    probes the host and returns the segment's scaled seconds. Probes
    run between segments, so their time is never part of an op.
    ``op_raw`` is the unscaled time of the op's segments so far.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.op_raw = 0.0
        self._mark = time.perf_counter()

    def start(self) -> None:
        self.op_raw = 0.0
        self._mark = time.perf_counter()

    def lap(self) -> float:
        raw = time.perf_counter() - self._mark
        after = probe()
        scaled = raw * scale(self.probes[-1], after)
        self.probes.append(after)
        self.op_raw += raw
        self._mark = time.perf_counter()
        return scaled
