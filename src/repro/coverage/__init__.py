"""Micro-behavior coverage maps and the anomaly flight recorder.

Lumina's value proposition is *observing* micro-behaviors of offloaded
stacks; aggregate metrics (``repro.telemetry``) say how often things
happened but not *which* protocol states and pipeline paths a run
actually exercised. This package closes that gap with two deterministic
observability primitives layered on the telemetry conventions:

* :class:`~repro.coverage.map.CoverageMap` — hit counts plus first-hit
  sim-time for named instrumentation points, grouped into domains that
  mirror the paper's micro-behaviors (switch match-action tables, the
  ITER tracker of Fig. 3, GBN/RNR state-machine edges of §6, DCQCN
  rate-state transitions). Maps merge commutatively, so suite, sweep
  and fuzz campaigns aggregate byte-identically for any worker count.
* :class:`~repro.coverage.recorder.FlightRecorder` — a bounded ring of
  the last N protocol events per component, dumped alongside the report
  when a check FAILs, goes INCONCLUSIVE or an integrity retry fires —
  turning "test 83 failed" into an inspectable micro-behavior timeline.

Coverage is the *coverage facet* of the one observability session
(:mod:`repro.sessions`), which it shares with telemetry. It is **off by
default** and free when off: components fetch handles once at
construction through :func:`~repro.coverage.runtime.current` (null
handles while coverage is off), and nothing here ever feeds information
back into the simulation, so runs with coverage on or off produce
byte-identical traces and verdicts. Enable with ``--coverage DIR``, via
:func:`enable`/:func:`disable`, or scoped with ``with
repro.sessions.session_scope(coverage="out/"):``.
"""

from .domains import DOMAINS, known_point_count
from .map import CoverageMap
from .recorder import NULL_RECORDER, FlightRecorder
from .runtime import active, current, disable, enable

__all__ = [
    "CoverageMap", "FlightRecorder",
    "DOMAINS", "known_point_count",
    "NULL_RECORDER",
    "enable", "disable", "current", "active",
]
