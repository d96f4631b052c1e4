"""The observability session: metrics and coverage, one lifecycle.

The reproduction observes itself through one :class:`Session` per
process (:func:`current`), which carries two facets:

* **metrics** — a :class:`~repro.telemetry.metrics.MetricsRegistry` and
  a :class:`~repro.telemetry.spans.Tracer` (``--telemetry``);
* **coverage** — a stack of :class:`~repro.coverage.map.CoverageMap`
  scopes plus per-component flight-recorder rings (``--coverage``).

Both facets start off and are switched independently: turning one on
or off never touches the other's state. An off facet is not a separate
class — its factories hand out the shared null handles (the
``NULL_REGISTRY`` metrics, ``NULL_TRACER`` spans,
:data:`~repro.coverage.map.NULL_DOMAIN` and
:data:`~repro.coverage.recorder.NULL_RECORDER`), so an instrumented
site costs one empty method call when its facet is off.

Components reach the session through two accessors per facet
(:mod:`repro.telemetry.runtime`, :mod:`repro.coverage.runtime`), with
different cost profiles:

* ``current()`` — never None: the session, whatever its facets. Use it
  where holding a handle is enough (fetch once at construction, bump
  on the hot path).
* ``active()`` — the session when that facet is on, else ``None``. Use
  it to guard work that is not free even in no-op form: wall-clock
  readings, span argument dicts, the simulator probe, map snapshots.

**Scopes.** Campaign layers need per-run and per-check maps (carried
on results across process boundaries) *and* a campaign total, so the
coverage facet holds a stack of maps. :meth:`Session.scope` isolates
the hits of one run (orchestrator), one check (suite) or one
in-process fuzz candidate (fuzzer) and pops the scope *without*
folding it into its parent. Folding is the caller's job at the
declared fold points (``run_test`` merges result-carried snapshots,
the suite merges check-carried snapshots in battery order, the fuzzer
folds its candidate scope), so serial, pooled and store-replayed work
take the same single merge route — the root of the workers∈{1,2,4}
byte-identity guarantee.

**Lifecycle.** :func:`session_scope` is the one way to switch facets
on around a block: the CLI, the campaign service's job process
(:func:`repro.service.jobs.job_worker_main`), pool workers
(:func:`repro.exec.worker.invoke`), the in-memory coverage of guided
fuzz and the benchmark harness all use it, so a campaign run locally
and the same campaign run as a job export the same ``coverage.json``,
telemetry files and flight-recorder dumps.

Determinism guarantee: nothing here feeds information back into the
simulation. The session observes sim state and wall time but never
schedules events, draws from the seeded PRNG or mutates component
state, so a run produces byte-identical traces and verdicts with
either facet on or off (``tests/test_telemetry_determinism.py``,
``tests/test_coverage.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .coverage.map import NULL_DOMAIN, CoverageMap, DomainHandle
from .coverage.recorder import NULL_RECORDER, FlightRecorder
from .telemetry.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .telemetry.spans import NULL_TRACER, NullTracer, Tracer

__all__ = ["Session", "current", "session_scope", "write_flight_dumps"]


class Session:
    """One process's observability state: a metrics and a coverage facet.

    Switching a facet off drops its data, and every holder of the
    session sees that: read what a facet collected before turning it
    off (:func:`session_scope` exports first).
    """

    registry: Union[MetricsRegistry, NullRegistry]
    tracer: Union[Tracer, NullTracer]

    def __init__(self) -> None:
        self.set_metrics(False)
        self.set_coverage(False)

    def facets(self) -> Tuple[bool, bool]:
        """``(metrics on, coverage on)`` — what a pool worker mirrors."""
        return self.metrics_on, self.coverage_on

    # ------------------------------------------------------------------
    # Metrics facet
    # ------------------------------------------------------------------
    def set_metrics(self, on: bool) -> "Session":
        """Switch metrics on (fresh registry and tracer) or off."""
        self.metrics_on = on
        self.registry = MetricsRegistry() if on else NULL_REGISTRY
        self.tracer = Tracer() if on else NULL_TRACER
        return self

    def counter(self, name: str, **labels):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels):
        return self.registry.histogram(name, buckets=buckets, **labels)

    def span(self, name: str, pid: str = "lumina", tid: str = "main",
             category: str = "", **args):
        return self.tracer.span(name, pid, tid, category, **args)

    def wall_span(self, name: str, pid: str = "lumina", tid: str = "main",
                  category: str = "", **args):
        return self.tracer.wall_span(name, pid, tid, category, **args)

    def instant(self, name: str, pid: str = "lumina", tid: str = "main",
                category: str = "", ts_ns=None, **args):
        return self.tracer.instant(name, pid, tid, category, ts_ns, **args)

    def export(self, out_dir: str) -> Dict[str, str]:
        """Write trace.json / metrics.prom / events.jsonl; returns paths."""
        registry, tracer = self.registry, self.tracer
        if isinstance(registry, NullRegistry) or isinstance(tracer, NullTracer):
            raise RuntimeError("telemetry is disabled; nothing to export")
        from .telemetry.export import export_run

        return export_run(registry, tracer, out_dir)

    # ------------------------------------------------------------------
    # Coverage facet
    # ------------------------------------------------------------------
    def set_coverage(self, on: bool) -> "Session":
        """Switch coverage on (empty root scope, no rings) or off."""
        self.coverage_on = on
        root = CoverageMap()
        self._stack: List[CoverageMap] = [root]
        #: The innermost scope — where hits land right now.
        self.live = root
        self._handles: Dict[str, DomainHandle] = {}
        self._recorders: Dict[str, FlightRecorder] = {}
        self._seq = 0  # session-wide flight-record ordering
        return self

    def domain(self, name: str):
        """The cached hit handle for one coverage domain."""
        if not self.coverage_on:
            return NULL_DOMAIN
        handle = self._handles.get(name)
        if handle is None:
            handle = self._handles[name] = DomainHandle(self, name)
        return handle

    def recorder(self, component: str):
        """The flight-recorder ring for one component."""
        if not self.coverage_on:
            return NULL_RECORDER
        rec = self._recorders.get(component)
        if rec is None:
            rec = self._recorders[component] = FlightRecorder(self, component)
        return rec

    @contextmanager
    def scope(self) -> Iterator[CoverageMap]:
        """Isolate the block's hits in a fresh innermost scope.

        Yields the scope's map and pops it on exit *without* folding it
        into the parent — see the module docstring for the fold points.
        """
        scope = CoverageMap()
        self._stack.append(scope)
        self.live = scope
        try:
            yield scope
        finally:
            self._stack.pop()
            self.live = self._stack[-1]

    def merge_snapshot(self, snapshot) -> None:
        """Fold a result-carried snapshot into the innermost scope."""
        self.live.merge_snapshot(snapshot)

    def total_snapshot(self) -> List[List]:
        """Everything the session has seen, across all open scopes."""
        total = CoverageMap()
        for scope in self._stack:
            total.merge_map(scope)
        return total.snapshot()

    def reset_recorders(self) -> None:
        """Clear every ring (called at the start of each run attempt)."""
        for rec in self._recorders.values():
            rec.clear()
        self._seq = 0

    def flight_snapshot(self) -> List[List]:
        """All rings as one timeline, ordered by recording sequence."""
        entries: List[tuple] = []
        for component in sorted(self._recorders):
            entries.extend(self._recorders[component].entries())
        entries.sort()
        return [list(entry) for entry in entries]


_current = Session()


def current() -> Session:
    """The process's one session, whatever its facets. Never None."""
    return _current


@contextmanager
def session_scope(telemetry: Union[str, bool, None] = None,
                  coverage: Union[str, bool, None] = None
                  ) -> Iterator[Session]:
    """Switch facets on around a block; export and switch them off after.

    Each argument is a directory to export that facet into, ``True``
    for an in-memory facet, or ``None``/``False`` to leave the facet as
    it is. On a normal exit a coverage directory receives
    ``coverage.json`` (and live telemetry the ``coverage_*`` gauges),
    then a telemetry directory receives the telemetry export. On any
    exit the facets this scope switched on are switched off again.
    """
    session = _current
    if telemetry:
        session.set_metrics(True)
    if coverage:
        session.set_coverage(True)
    try:
        yield session
        if isinstance(coverage, str):
            from .coverage.domains import known_point_count
            from .coverage.report import export_coverage

            points = session.total_snapshot()
            if session.metrics_on:
                # Headline gauges for `telemetry-report`, published
                # before the telemetry export below snapshots them.
                session.gauge("coverage_domains_hit").set(
                    len({row[0] for row in points}))
                session.gauge("coverage_points_hit").set(len(points))
                session.gauge("coverage_points_known").set(
                    known_point_count())
            path = export_coverage(points, coverage)
            print(f"coverage written to {path} ({len(points)} points)")
        if isinstance(telemetry, str):
            paths = session.export(telemetry)
            names = sorted(os.path.basename(p) for p in paths.values())
            print(f"telemetry written to {telemetry} ({', '.join(names)})")
    finally:
        if coverage:
            session.set_coverage(False)
        if telemetry:
            session.set_metrics(False)


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
