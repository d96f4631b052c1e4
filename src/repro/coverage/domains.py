"""The registry of known coverage domains and instrumentation points.

Every point a component can :meth:`~repro.coverage.map.DomainHandle.
hit` is declared here, so ``coverage-report`` can answer the negative
question — "which GBN edges has this campaign *never* reached?" — not
just the positive one. The declaration is advisory: the hot path never
validates against it (a hit on an undeclared point is reported as
"undeclared", not rejected), so adding instrumentation is a two-line
change and a stale registry cannot crash a run.

Domains mirror the paper's micro-behaviors (see DESIGN.md for the full
mapping): ``switch.*`` covers the Tofino-modelled match-action tables,
per-event rewrite/injection branches, the mirror block and the ITER
tracker of Fig. 3; ``rdma.gbn`` covers the Go-back-N / RNR / adaptive
retransmission state-machine edges of §4 and §6; ``rdma.nic`` covers
NIC-level micro-behaviors (CNP generation and suppression scopes,
MigReq slow path, noisy-neighbor stalls); ``rdma.dcqcn`` covers the
DCQCN reaction-point rate states.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["DOMAINS", "known_point_count", "missing_points"]

#: domain -> declared instrumentation points (sorted tuples).
DOMAINS: Dict[str, Tuple[str, ...]] = {
    "switch.table": (
        "exact-hit",      # exact (src, dst, qpn, psn, iter) entry matched
        "wildcard-hit",   # any-iteration wildcard entry matched
        "miss",           # no entry for the packet's flow/psn
        "exhausted",      # entry matched but its event budget is spent
    ),
    "switch.iter": (
        "new-connection",    # first packet of a (src, dst, qpn) flow
        "in-order-advance",  # PSN strictly later: same iteration
        "retransmit-round",  # PSN not later: ITER++ (Fig. 3)
    ),
    "switch.pipeline": (
        "rewrite-applied",   # header rewrite rule matched and applied
        "event-drop",        # injected drop consumed a table entry
        "event-ecn",         # injected ECN mark
        "event-corrupt",     # injected payload corruption (iCRC test)
        "event-delay",       # injected per-packet delay
        "event-reorder",     # packet held for reordering
        "reorder-release",   # held packet released back into the stream
        "queue-ecn-mark",    # egress-queue depth crossed the ECN threshold
    ),
    "switch.mirror": (
        "mirrored",           # clone stamped and sent to a dumper
        "fault-intercepted",  # measurement-fault plan swallowed the clone
    ),
    "rdma.gbn": (
        # Responder edges (§4 Go-back-N, Fig. 11 RNR):
        "in-order-accept",       # psn == ePSN: payload accepted
        "rnr-nak-sent",          # in-order but no receive WQE: RNR NAK
        "gap-nak",               # psn > ePSN: one NAK per gap
        "duplicate-request",     # psn < ePSN: ghost ACK, payload dropped
        "read-in-order",         # read request at ePSN served
        "read-gap-nak",          # read request beyond ePSN: NAK
        "read-duplicate-retransmit",  # duplicate read re-served
        # Requester edges:
        "ack-advance",           # ACK advanced the unacked window
        "rnr-nak-received",      # RNR NAK accepted for a pending WQE
        "rnr-backoff",           # RNR timer armed, resend scheduled
        "rnr-retry-exceeded",    # RNR retry budget exhausted: QP -> ERROR
        "nak-rewind",            # PSN_SEQ_ERR NAK: Go-back-N rewind
        "read-response-in-order",  # read response advanced the window
        "read-implied-nak",      # OOO read response: implied NAK
        "timeout-retransmit",    # retransmission timeout fired for real
        "timeout-rearm",         # timer fired early: re-armed remainder
        "timeout-deferred",      # timeout superseded by in-flight recovery
        "retry-exceeded",        # transport retry budget exhausted
    ),
    "rdma.nic": (
        "stall-discard",        # rx discarded during a pipeline stall
        "icrc-discard",         # corrupted packet dropped at rx (iCRC)
        "migreq-slow-path",     # MigReq=0 packet took the firmware path
        "migreq-context-full-discard",  # slow-path context table full
        "cnp-sent",             # CE-marked data packet produced a CNP
        "cnp-suppressed",       # CNP limiter scope suppressed generation
        "cnp-handled",          # CNP delivered to the reaction point
        "ecn-marked-rx",        # CE-marked data packet arrived
        "noisy-neighbor-stall", # read-loss threshold tripped a stall
    ),
    "rdma.dcqcn": (
        "cnp-rate-cut",       # RP cut current rate, alpha refreshed
        "alpha-decay",        # alpha decayed one step (no CNP seen)
        "timer-round",        # rate-increase timer round completed
        "byte-round",         # byte-counter round completed
        "fast-recovery",      # increase stage: halve toward target rate
        "additive-increase",  # increase stage: target += Rai
        "hyper-increase",     # increase stage: target += Rhai
    ),
}


def known_point_count() -> int:
    """Total number of declared instrumentation points."""
    return sum(len(points) for points in DOMAINS.values())


def missing_points(domain: str, hit_points) -> List[str]:
    """Declared points of ``domain`` absent from ``hit_points``."""
    hit = set(hit_points)
    return [p for p in DOMAINS.get(domain, ()) if p not in hit]
