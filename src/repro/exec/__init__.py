"""Parallel campaign execution.

Lumina campaigns — fuzzing generations, conformance batteries,
benchmark sweeps — are bags of independent, seed-deterministic
simulations. This package fans them out over a spawn-safe process pool
while keeping results byte-identical to serial execution:

* :class:`ParallelRunner` — the pool itself: per-task timeouts,
  retry-on-worker-crash, graceful in-process fallback, per-worker
  telemetry merge. Its :meth:`~ParallelRunner.map_batch` is the one
  campaign fan-out every front-end (sweep, suite, fuzzer) uses: store
  replay, dispatch of the misses, write-back and the coverage fold, with
  a :class:`TaskCodec` saying how the values are stored.
* :mod:`repro.exec.tasks` — the picklable task functions (score a fuzz
  candidate, run a conformance check, summarise a sweep run).
* :mod:`repro.exec.worker` — the worker-side shim that runs each task
  under a worker-local session with the parent's facets on.
"""

from .runner import (ParallelRunner, RunnerStats, TaskCodec, TaskOutcome,
                     UnpicklableTaskError)

__all__ = ["ParallelRunner", "RunnerStats", "TaskCodec", "TaskOutcome",
           "UnpicklableTaskError"]
