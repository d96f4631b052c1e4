"""Benchmark sweep: one workload executed across a NIC × seed grid.

Extracted from the CLI so the grid build, store-replay logic and report
rendering are one code path for ``python -m repro sweep``, the campaign
service and the api facade. Everything here is deterministic — the
wall-clock throughput line the CLI prints is computed by the caller,
never by this module (it sits inside repro-lint's DET001 scope).

The sweep *payload* is a plain JSON-able dict (the ``sweep`` JobSpec
payload shape)::

    {"config": <TestConfig dict or None>,   # None: built-in workload
     "nics": ["cx4", "cx5", ...],
     "seeds": 2,                            # seeds per NIC
     "base-seed": 1,
     "verb": "write", "connections": 2, "messages": 4, "size": 20480,
     "faults": <scenario name or None>,
     "timeout": <per-run seconds or None>}
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # avoid a runtime core -> exec/store import cycle
    from ..exec.runner import TaskOutcome
    from ..store.index import CampaignStore

from .config import TestConfig

__all__ = ["build_grid", "run_sweep", "render_sweep_report",
           "SweepExecution"]


def build_grid(payload: Dict) -> Tuple[List[TestConfig],
                                       List[Tuple[str, int]]]:
    """``(configs, cells)`` for one sweep payload, in grid order.

    ``cells`` pairs each config with its ``(nic, seed)`` coordinates.
    A base config (when given) is re-seeded per cell and has both
    hosts' NIC types replaced; otherwise the built-in workload is
    generated from the payload's traffic knobs.
    """
    from dataclasses import replace

    scenario = None
    if payload.get("faults"):
        from ..faults import get_scenario

        scenario = get_scenario(payload["faults"])
    configs: List[TestConfig] = []
    cells: List[Tuple[str, int]] = []
    for nic in payload["nics"]:
        for offset in range(payload["seeds"]):
            seed = payload["base-seed"] + offset
            if payload.get("config"):
                data = dict(payload["config"])
                data["seed"] = seed
                base = TestConfig.from_dict(data)
                config = replace(
                    base,
                    requester=replace(base.requester, nic_type=nic),
                    responder=replace(base.responder, nic_type=nic),
                )
            else:
                from .. import quick_config

                config = quick_config(nic=nic, verb=payload["verb"],
                                      num_connections=payload["connections"],
                                      num_msgs=payload["messages"],
                                      message_size=payload["size"],
                                      seed=seed)
            if scenario is not None:
                config = scenario.apply(config)
            configs.append(config)
            cells.append((nic, seed))
    return configs, cells


class SweepExecution:
    """The outcome of one executed grid (see :func:`run_sweep`)."""

    def __init__(self, cells: List[Tuple[str, int]],
                 outcomes: List["TaskOutcome"],
                 executed: int, crashes: int):
        self.cells = cells
        self.outcomes = outcomes
        #: Cells actually run (grid size minus store replays).
        self.executed = executed
        self.crashes = crashes


def run_sweep(payload: Dict, workers: int = 1,
              store: Optional["CampaignStore"] = None) -> SweepExecution:
    """Execute one sweep grid, replaying cached cells from ``store``.

    Cached cells short-circuit without touching the process pool; a
    fully-cached grid therefore spawns no workers at all. Fresh
    summaries are stored after the grid runs, so a repeated sweep
    replays every cell.
    """
    configs, cells = build_grid(payload)

    from ..coverage import runtime as coverage_runtime
    from ..exec import ParallelRunner, TaskCodec
    from ..exec.tasks import run_summary_task

    fps = None
    if store is not None:
        from ..store.fingerprint import config_fingerprint

        extra = ({"coverage": True}
                 if coverage_runtime.active() is not None else None)
        fps = [config_fingerprint(config, kind="summary", extra=extra)
               for config in configs]
    codec = TaskCodec("summary",
                      coverage=lambda summary: summary.get("coverage"))
    with ParallelRunner(run_summary_task, workers=workers,
                        task_timeout_s=payload.get("timeout")) as runner:
        outcomes = runner.map_batch([{"config": c} for c in configs],
                                    codec, store, fps)
    return SweepExecution(cells, outcomes,
                          executed=sum(not o.cached for o in outcomes),
                          crashes=runner.stats.worker_crashes)


def render_sweep_report(cells: List[Tuple[str, int]],
                        outcomes: List) -> Tuple[str, int]:
    """(deterministic report text, failure count) for a finished grid."""
    lines = [f"{'nic':<6s}{'seed':>6s}{'ok':>5s}{'mct_us':>10s}"
             f"{'retrans':>9s}{'timeouts':>10s}{'sim_ms':>9s}",
             "-" * 55]
    failures = 0
    for (nic, seed), outcome in zip(cells, outcomes):
        if not outcome.ok:
            failures += 1
            lines.append(f"{nic:<6s}{seed:>6d}  ERR  {outcome.error}")
            continue
        s = outcome.value
        if not s["ok"]:
            failures += 1
        lines.append(f"{nic:<6s}{seed:>6d}{'yes' if s['ok'] else 'NO':>5s}"
                     f"{s['avg_mct_us']:>10.1f}{s['retransmitted']:>9d}"
                     f"{s['timeouts']:>10d}{s['duration_ns'] / 1e6:>9.2f}")
    lines.append("-" * 55)
    lines.append(f"{len(cells)} runs, {failures} failure(s)")
    return "\n".join(lines) + "\n", failures
