"""Enhanced Transmission Selection (IEEE 802.1Qaz) egress scheduler.

A hierarchical scheduler: strict-priority queues drain first; the
remaining bandwidth is shared between weighted queues. The spec requires
*work conservation* — a weighted queue that cannot use its guaranteed
share must yield the leftover to other queues.

The model implements both the spec-compliant scheduler and the CX6 Dx
bug (§6.2.1): with ``work_conserving=False`` every weighted queue is
additionally clamped by a shaper at its guaranteed rate, so spare
bandwidth from an underusing queue is simply wasted — exactly the
behaviour Figure 10 exposes.

Weighted sharing uses virtual finish times (start-time fair queueing),
which is how NIC hardware approximates weighted fair queueing; per-QP
round-robin inside a queue keeps co-mapped QPs fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .qp import QueuePair

__all__ = ["EtsQueueConfig", "EtsScheduler"]

@dataclass(frozen=True)
class EtsQueueConfig:
    """Static configuration of one ETS traffic class."""

    index: int
    weight: float = 0.0          # share of line rate for weighted queues
    strict_priority: bool = False

    def __post_init__(self) -> None:
        if self.strict_priority:
            if self.weight:
                raise ValueError("strict-priority queues take no weight")
        elif not 0.0 < self.weight <= 1.0:
            raise ValueError(f"queue {self.index}: weight must be in (0, 1]")


class _Queue:
    """Runtime state of one traffic class."""

    def __init__(self, config: EtsQueueConfig, line_rate_bps: int):
        self.config = config
        self.qps: List["QueuePair"] = []
        self._rr_next = 0
        self.virtual_finish = 0.0
        # Shaper used only in the non-work-conserving (buggy) mode.
        self.shaper_free_at = 0
        self.guaranteed_bps = int(config.weight * line_rate_bps) or line_rate_bps
        self.bytes_sent = 0

    def pick_qp(self, now: int) -> Tuple[Optional["QueuePair"], Optional[int]]:
        """Round-robin over this queue's QPs honouring per-QP pacing.

        Same contract as :meth:`EtsScheduler.select`: ``(qp, None)`` when
        some QP can send now, else ``(None, t)`` with the earliest time a
        paced backlogged QP becomes eligible (``None`` if none is
        backlogged).
        """
        qps = self.qps
        n = len(qps)
        start = self._rr_next
        earliest = None
        for offset in range(n):
            qp = qps[(start + offset) % n]
            if not qp.has_pending_tx():
                continue
            ready_at = qp.pacing_ready_at
            if ready_at <= now:
                self._rr_next = (start + offset + 1) % n
                return qp, None
            if earliest is None or ready_at < earliest:
                earliest = ready_at
        return None, earliest


def _earlier(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The earlier of two optional times (``None`` means never)."""
    if a is None or (b is not None and b < a):
        return b
    return a


class EtsScheduler:
    """Egress arbiter across ETS traffic classes."""

    def __init__(self, line_rate_bps: int, work_conserving: bool = True):
        if line_rate_bps <= 0:
            raise ValueError("line rate must be positive")
        self.line_rate_bps = line_rate_bps
        self.work_conserving = work_conserving
        self._queues: Dict[int, _Queue] = {}
        self._strict_order: List[int] = []
        self._weighted_order: List[int] = []
        #: The one traffic class when the configuration has exactly one,
        #: weighted, under a work-conserving scheduler (every NIC that is
        #: not given an ETS configuration). :meth:`select` then reduces to
        #: that class's round-robin pick, so the NIC calls
        #: ``lone_class.pick_qp`` directly. ``None`` otherwise.
        self.lone_class: Optional[_Queue] = None
        # Default single best-effort queue so NICs work unconfigured.
        self.configure([EtsQueueConfig(index=0, weight=1.0)])

    def configure(self, configs: List[EtsQueueConfig]) -> None:
        """Install traffic classes (replaces any previous configuration)."""
        if not configs:
            raise ValueError("at least one ETS queue is required")
        indices = [c.index for c in configs]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate ETS queue index")
        weights = sum(c.weight for c in configs if not c.strict_priority)
        if weights > 1.0 + 1e-9:
            raise ValueError(f"ETS weights sum to {weights:.2f} > 1")
        self._queues = {c.index: _Queue(c, self.line_rate_bps) for c in configs}
        self._strict_order = sorted(i for i in indices if self._queues[i].config.strict_priority)
        self._weighted_order = sorted(i for i in indices if not self._queues[i].config.strict_priority)
        self.lone_class = None
        if self.work_conserving and len(configs) == 1 \
                and not configs[0].strict_priority:
            self.lone_class = self._queues[configs[0].index]

    def assign(self, qp: "QueuePair", queue_index: int) -> None:
        """Map a QP to a traffic class (Fig. 10's "map two QPs to ...")."""
        if queue_index not in self._queues:
            raise KeyError(f"no ETS queue {queue_index}")
        for queue in self._queues.values():
            if qp in queue.qps:
                queue.qps.remove(qp)
        self._queues[queue_index].qps.append(qp)
        qp.ets_queue_index = queue_index

    def queue_bytes_sent(self, queue_index: int) -> int:
        return self._queues[queue_index].bytes_sent

    # ------------------------------------------------------------------
    def select(self, now: int) -> Tuple[Optional["QueuePair"], Optional[int]]:
        """Choose the QP allowed to transmit next.

        Returns ``(qp, None)`` when a QP may send immediately, or
        ``(None, t)`` with the earliest future time a blocked QP becomes
        eligible (``None`` if nothing is backlogged at all).
        """
        earliest: Optional[int] = None

        # Strict-priority classes first, in index order.
        for index in self._strict_order:
            qp, when = self._queues[index].pick_qp(now)
            if qp is not None:
                return qp, None
            earliest = _earlier(earliest, when)

        # Weighted classes: eligible queue with the smallest virtual
        # finish time wins; the buggy mode additionally requires the
        # queue's own shaper to have credit.
        best: Optional[_Queue] = None
        best_qp: Optional["QueuePair"] = None
        for index in self._weighted_order:
            queue = self._queues[index]
            if not any(qp.has_pending_tx() for qp in queue.qps):
                continue
            if not self.work_conserving and queue.shaper_free_at > now:
                earliest = _earlier(earliest, queue.shaper_free_at)
                continue
            qp, when = queue.pick_qp(now)
            if qp is None:
                earliest = _earlier(earliest, when)
                continue
            if best is None or queue.virtual_finish < best.virtual_finish:
                best, best_qp = queue, qp
        if best_qp is not None:
            return best_qp, None
        return None, earliest

    def account(self, qp: "QueuePair", now: int, size_bytes: int) -> None:
        """Charge a transmitted packet to the QP's traffic class."""
        queue = self._queues.get(getattr(qp, "ets_queue_index", 0))
        if queue is None:
            return
        queue.bytes_sent += size_bytes
        if queue.config.strict_priority:
            return
        share = queue.config.weight or 1.0
        cost = size_bytes * 8.0 / (share * self.line_rate_bps)
        queue.virtual_finish = max(queue.virtual_finish, now / 1e9) + cost
        if not self.work_conserving:
            # The bug: the queue may never exceed its guaranteed rate,
            # even when every other queue is idle.
            ser = size_bytes * 8 * 1_000_000_000 // queue.guaranteed_bps
            queue.shaper_free_at = max(queue.shaper_free_at, now) + ser
