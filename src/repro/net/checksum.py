"""Invariant CRC (iCRC) for RoCEv2 packets.

RoCEv2 protects the IB transport headers and payload with a CRC32
("iCRC") computed over the packet with volatile fields (TTL, ECN, ...)
masked to ones. A corrupted packet — which Lumina's event injector can
create on purpose — fails this check at the receiving RNIC and shows up
in the ``rx_icrc_errors`` counter.

The polynomial is the standard reflected CRC-32 (0xEDB88320) used by
InfiniBand — the same one :func:`zlib.crc32` implements in C, so the
fold runs on zlib. The historical table-driven implementation survives
only as the parity oracle in ``tests/crc_oracle.py``; the two are
related by a complement at the chaining boundary:
``table_fold(data, crc) ^ 0xFFFFFFFF == zlib.crc32(data, crc ^ 0xFFFFFFFF)``.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Iterable, List, Tuple

__all__ = ["crc32_ib", "icrc_for", "icrc_many", "icrc_batch_stats"]

#: Reusable all-zero buffer for the simulated payload fold. Payloads in
#: the model are virtual (only their length matters), so the iCRC folds
#: ``payload_len`` zero bytes; the buffer grows to the largest payload
#: seen and is sliced with memoryview (no per-call allocation).
_ZEROS = bytes(4096)


def _zeros(n: int) -> memoryview:
    global _ZEROS
    if n > len(_ZEROS):
        _ZEROS = bytes(max(n, 2 * len(_ZEROS)))
    return memoryview(_ZEROS)[:n]


def crc32_ib(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """CRC-32 over ``data`` with the IB initial value, returned inverted.

    ``crc`` is a raw (non-inverted) register value, as produced by the
    table fold — callers chaining folds pass the previous *register*,
    not the previous return value. zlib keeps the register complemented
    internally, hence the XORs at the boundary.
    """
    return zlib.crc32(data, crc ^ 0xFFFFFFFF)


@lru_cache(maxsize=4096)
def icrc_for(transport_bytes: bytes, payload_len: int) -> int:
    """The iCRC an RNIC would compute for a packet.

    ``transport_bytes`` are the packed BTH (+ extension headers); the
    payload is simulated, so it contributes as ``payload_len`` zero
    bytes. Volatile IP fields are already excluded by construction —
    the simulation masks them by simply not including the IP header.

    Memoised: traffic generators emit long trains of identical
    transport headers (only the virtual payload differs in length), so
    the ``(transport_bytes, payload_len)`` key repeats constantly and
    the zero-fold over the payload dominates an uncached call.
    """
    crc = zlib.crc32(transport_bytes)
    if payload_len:
        crc = zlib.crc32(_zeros(payload_len), crc)
    return crc


def icrc_many(items: Iterable[Tuple[bytes, int]]) -> List[int]:
    """Batched :func:`icrc_for` for mirror/dumper paths.

    Takes ``(transport_bytes, payload_len)`` pairs and returns the iCRC
    for each. Bypasses the lru_cache bookkeeping per item but keeps the
    same values — mirror trains repeat a handful of header shapes, so a
    local dict catches the duplicates within the batch.
    """
    seen: dict = {}
    out: List[int] = []
    for transport_bytes, payload_len in items:
        key = (transport_bytes, payload_len)
        crc = seen.get(key)
        if crc is None:
            crc = zlib.crc32(transport_bytes)
            if payload_len:
                crc = zlib.crc32(_zeros(payload_len), crc)
            seen[key] = crc
        out.append(crc)
    global _batch_hits, _batch_misses
    _batch_hits += len(out) - len(seen)
    _batch_misses += len(seen)
    return out


#: Process-wide tallies of icrc_many()'s in-batch dedup (telemetry
#: only; the orchestrator records per-run deltas alongside the
#: icrc_for lru_cache stats).
_batch_hits = 0
_batch_misses = 0


def icrc_batch_stats() -> Tuple[int, int]:
    """Cumulative (hits, misses) across all icrc_many() batches."""
    return _batch_hits, _batch_misses
