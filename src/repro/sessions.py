"""Session scope: the one telemetry/coverage lifecycle.

The CLI wraps every local command in :func:`session_scope` and the
campaign service's job process
(:func:`repro.service.jobs.job_worker_main`) wraps every job in it, so
a campaign run locally and the same campaign run as a job export the
same ``coverage.json``, telemetry files and flight-recorder dumps. Kept
out of :mod:`repro.service` so that commands without sessions do not
pay for importing the service layer.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from .coverage import runtime as coverage
from .telemetry import runtime as telemetry

__all__ = ["session_scope", "write_flight_dumps"]


@contextmanager
def session_scope(telemetry_dir: Optional[str] = None,
                  coverage_dir: Optional[str] = None) -> Iterator[None]:
    """Own one telemetry/coverage session lifecycle around a block.

    Enables telemetry when ``telemetry_dir`` is given and coverage when
    ``coverage_dir`` is. On a normal exit it writes
    ``coverage_dir/coverage.json``, publishes the ``coverage_*`` gauges
    into telemetry and exports telemetry into ``telemetry_dir``; on any
    exit it disables both.
    """
    tel = telemetry.enable(telemetry_dir) if telemetry_dir else None
    cov = coverage.enable(coverage_dir) if coverage_dir else None
    try:
        yield
        if cov is not None:
            from .coverage.domains import known_point_count
            from .coverage.report import export_coverage

            points = cov.total_snapshot()
            if tel is not None:
                # Headline gauges for `telemetry-report`, published
                # before the telemetry export below snapshots them.
                tel.gauge("coverage_domains_hit").set(
                    len({row[0] for row in points}))
                tel.gauge("coverage_points_hit").set(len(points))
                tel.gauge("coverage_points_known").set(known_point_count())
            path = export_coverage(points, coverage_dir)
            print(f"coverage written to {path} ({len(points)} points)")
        if tel is not None:
            paths = tel.export()
            names = sorted(os.path.basename(p) for p in paths.values())
            print(f"telemetry written to {telemetry_dir} "
                  f"({', '.join(names)})")
    finally:
        if cov is not None:
            coverage.disable()
        if tel is not None:
            telemetry.disable()


def write_flight_dumps(records: List[Tuple[str, str, List[list]]],
                       coverage_dir: Optional[str]) -> List[str]:
    """Persist anomaly flight-recorder dumps next to the coverage map.

    ``records`` is ``[(name, trigger, timeline-entries), ...]`` — one
    dump per failing/inconclusive/retried unit of work. Returns the
    written paths; writes nothing without a ``coverage_dir``.
    """
    if not coverage_dir or not records:
        return []
    from .coverage.report import flight_dump_name, render_flight_record

    os.makedirs(coverage_dir, exist_ok=True)
    paths = []
    for name, trigger, entries in records:
        path = os.path.join(coverage_dir, flight_dump_name(name))
        with open(path, "w") as handle:
            handle.write(render_flight_record(entries, name, trigger))
        paths.append(path)
    return paths
