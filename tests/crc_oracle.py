"""Table-driven pure-Python iCRC: the parity oracle for the zlib backend.

This is the pre-zlib implementation of :func:`repro.net.checksum.
crc32_ib` and :func:`repro.net.checksum.icrc_for`, kept verbatim so
``test_hotpath_golden.py`` can assert bit-parity with zlib over random
buffers, lengths and chained folds. Nothing in ``src/`` uses it.
"""

from typing import List

_POLY = 0xEDB88320


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _build_table()


def crc32_ib_py(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Table-driven reference implementation of ``crc32_ib``."""
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def icrc_for_py(transport_bytes: bytes, payload_len: int) -> int:
    """Table-driven reference implementation of ``icrc_for``."""
    crc = 0xFFFFFFFF
    for byte in transport_bytes:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    for _ in range(payload_len):
        crc = (crc >> 8) ^ _TABLE[crc & 0xFF]
    return crc ^ 0xFFFFFFFF
