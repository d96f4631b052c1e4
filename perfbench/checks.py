"""Output checks: op digests, the reference table and identity checks.

Every op's full output is hashed — result documents, report text,
encoded fuzz reports and job result bytes, with no field left out —
and compared with the reference digest recorded for the same
``(workload, seed, op index)`` in ``reference_digests.json``. Seeds or
op indices the table does not cover are still subject to the identity
checks each workload runs (a resubmitted job's bytes equal the fresh
job's, a replayed result re-encodes to the stored document, traced
output equals untraced output).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Union

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_digests.json")
#: Hex digits of each SHA-256 digest kept in the reference table.
REFERENCE_DIGITS = 20


def canonical(doc) -> bytes:
    """The byte form every JSON output is hashed in."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(parts: Iterable[Union[bytes, str]]) -> str:
    """SHA-256 over the length-prefixed parts of one op's output."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def load_references(path: str = REFERENCE_FILE) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def reference_for(table: Dict, workload: str, seed: int, index: int) -> Optional[str]:
    ops: List[str] = table.get(workload, {}).get(str(seed), [])
    return ops[index] if index < len(ops) else None


class OutputCheck:
    """Tallies digest matches and identity checks for one run."""

    def __init__(self, workload: str, seed: int, table: Optional[Dict] = None):
        self.workload = workload
        self.seed = seed
        self.table = load_references() if table is None else table
        self.digests: List[Optional[str]] = []
        self.referenced = 0
        self.mismatched_ops: set = set()
        self.identity_checks = 0
        self.problems: List[str] = []

    def record(self, index: int, value: str) -> bool:
        """Record op ``index``'s digest; False when it contradicts the table."""
        self.digests.append(value)
        expected = reference_for(self.table, self.workload, self.seed, index)
        if expected is None:
            return True
        self.referenced += 1
        if not value.startswith(expected):
            self.fail(index, f"digest {value[:REFERENCE_DIGITS]} != reference {expected}")
            return False
        return True

    def raised(self, index: int, exc: BaseException) -> None:
        """Op ``index`` raised instead of producing an output."""
        self.digests.append(None)
        self.fail(index, f"{type(exc).__name__}: {exc}")

    def identity(self, index: int, ok: bool, what: str) -> None:
        self.identity_checks += 1
        if not ok:
            self.fail(index, f"identity check failed: {what}")

    def fail(self, index: int, message: str) -> None:
        self.mismatched_ops.add(index)
        self.problems.append(f"op {index}: {message}")
