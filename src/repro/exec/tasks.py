"""Module-level task functions for the parallel campaign runner.

These are the units of work the :class:`~repro.exec.runner.\
ParallelRunner` ships to pool workers. Spawned workers pickle
functions *by reference*, so everything here is a plain module-level
callable taking one picklable payload dict. Imports of the simulation
stack happen inside the functions: the module itself stays cheap to
import in the parent and the heavy imports run once per worker
process, amortised over every task it serves.

Campaign tasks return *compact* values — a :class:`Score`, a
:class:`CheckResult`, a summary dict — never full packet traces; a
trace can be tens of thousands of parsed records and would make the
result pipe the bottleneck. Each value carries its own coverage
snapshot, which :meth:`~repro.exec.runner.ParallelRunner.map_batch`
folds into the session however the task ran.
"""

from __future__ import annotations

import time
from typing import Any, Dict

__all__ = [
    "score_config_task",
    "run_check_task",
    "run_summary_task",
    "summarize_result",
    "echo_task",
    "sleep_task",
    "crash_in_worker_task",
    "telemetry_probe_task",
]


def score_config_task(payload: Dict[str, Any]):
    """Fuzzer unit: run one candidate config and return only its Score.

    Payload: ``{"config": TestConfig, "weights": ScoreWeights,
    "iteration": int}`` plus, in-process only, a custom ``"run_fn"``
    (default :func:`~repro.core.orchestrator.run_test`).
    """
    from .. import sessions
    from ..core.fuzz.score import score_result
    from ..core.orchestrator import run_test

    session = sessions.current()
    # Each candidate is an independent sim starting at t=0, so its span
    # lives on the wall-clock lane.
    with session.wall_span("fuzz.generation", pid="fuzzer", category="fuzz",
                           iteration=payload["iteration"]) as span:
        # Scoped capture: a custom run_fn may hit points without
        # attaching them to its result; run_test results carry their own.
        with session.scope() as run_scope:
            result = payload.get("run_fn", run_test)(payload["config"])
        score = score_result(result, payload["weights"])
        # Ride the run's coverage on the compact score so the fuzzer's
        # cumulative map grows identically for any worker count.
        score.coverage = result.coverage
        if score.coverage is None and len(run_scope):
            score.coverage = run_scope.snapshot()
        span.set(score=round(score.total, 3), valid=score.valid)
    return score


def run_check_task(payload: Dict[str, Any]):
    """Conformance-suite unit: run one named check for (nic, seed).

    Payload: ``{"check": str, "nic": str, "seed": int}`` plus an
    optional ``"faults"`` entry — a measurement-fault scenario name or
    :class:`~repro.faults.scenarios.FaultScenario` — to run the check
    under injected capture faults.
    """
    from ..core.suite import run_single_check

    faults = payload.get("faults")
    if isinstance(faults, str):
        from ..faults.scenarios import get_scenario

        faults = get_scenario(faults)
    return run_single_check(payload["check"], payload["nic"],
                            payload["seed"], faults)


def summarize_result(result) -> Dict[str, Any]:
    """The sweep's compact summary of one :class:`TestResult`.

    Shared by :func:`run_summary_task` (pool workers) and the campaign
    store's replay path, so a cached cell and a fresh cell summarise
    identically — a prerequisite for byte-identical sweep reports.
    """
    log = result.traffic_log
    summary = {
        "ok": result.ok,
        "integrity_ok": result.integrity.ok,
        "attempts": result.attempts_used,
        "duration_ns": result.duration_ns,
        "trace_packets": len(result.trace),
        "aborted_qps": log.aborted_qps,
        "avg_mct_us": round((log.avg_mct_ns or 0) / 1e3, 2),
        "retransmitted": int(result.requester_counters[
            "retransmitted_packets"]),
        "timeouts": int(result.requester_counters["local_ack_timeout_err"]),
    }
    # Only present when recorded, so coverage-off sweeps summarise
    # byte-identically to before.
    if result.coverage is not None:
        summary["coverage"] = result.coverage
    return summary


def run_summary_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Benchmark-sweep unit: run one config, return a compact summary.

    Payload: ``{"config": TestConfig}``.
    """
    from ..core.orchestrator import run_test

    return summarize_result(run_test(payload["config"]))


# ---------------------------------------------------------------------------
# Diagnostic tasks (runner self-tests and pool health checks)
# ---------------------------------------------------------------------------

def echo_task(payload: Any) -> Any:
    """Return the payload unchanged (pool plumbing check)."""
    return payload


def sleep_task(payload: Dict[str, Any]) -> float:
    """Sleep ``payload["seconds"]`` then return it (timeout check)."""
    seconds = float(payload["seconds"])
    time.sleep(seconds)
    return seconds


def telemetry_probe_task(payload: Dict[str, Any]) -> int:
    """Bump a counter in the executing process's telemetry registry.

    Payload: ``{"n": int}``. Exercises the worker-snapshot → parent
    merge path: in a pool worker the increment lands in the worker's
    private session and reaches the parent only via the snapshot
    shipped back with the result.
    """
    from ..telemetry import runtime as telemetry

    n = int(payload.get("n", 1))
    telemetry.current().counter("exec_probe_events").inc(n)
    return n


def crash_in_worker_task(payload: Any) -> Any:
    """Die abruptly when run inside a pool worker; echo otherwise.

    Exercises the worker-crash recovery path: in a pool worker the
    process exits without cleanup (a segfault stand-in, which the pool
    reports as BrokenProcessPool); on the in-process fallback path it
    completes normally, proving the campaign loses nothing.
    """
    from . import worker

    if worker.IN_WORKER:
        import os

        os._exit(17)
    return payload
