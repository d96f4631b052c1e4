"""Worker-side shim for the parallel campaign runner.

Everything here must be importable by a freshly ``spawn``-ed process:
the :class:`~repro.exec.runner.ParallelRunner` submits
``invoke(task_fn, payload, facets)`` to the pool, and the child pickles
``task_fn`` *by reference* — so task functions must be plain
module-level callables (see :mod:`repro.exec.tasks`).

Each invocation runs under a worker-local session with the parent's
facets (:meth:`repro.sessions.Session.facets`) switched on. Only the
metrics registry's snapshot travels back alongside the task value, for
the parent to merge into its own registry: span traces stay in the
worker (they are neither compact nor mergeable), and coverage rides on
the task's return value (results, scores and check verdicts carry their
own snapshots).
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from ..sessions import session_scope

#: True inside pool workers (set by the pool initializer). Task
#: functions may consult this to tell pool execution apart from the
#: in-process fallback path; the runner's fault-injection tests rely
#: on it to crash only inside an expendable worker process.
IN_WORKER = False


def init_worker() -> None:
    """Pool initializer: mark this process as an expendable worker."""
    global IN_WORKER
    # repro-lint: ignore[RACE001] — the flag exists precisely to differ
    # between worker and parent processes; it never feeds results.
    IN_WORKER = True  # repro-lint: ignore[RACE001]


def invoke(task_fn: Callable[[Any], Any], payload: Any,
           facets: Tuple[bool, bool]) -> Tuple[Any, list]:
    """Run one task under a session with the parent's ``facets`` on.

    Returns ``(value, metrics_snapshot)``; the snapshot is empty while
    metrics are off. Raises whatever the task raises — the parent maps
    exceptions to error outcomes.
    """
    with session_scope(*facets) as session:
        return task_fn(payload), session.registry.snapshot()
