"""Process-pool campaign runner.

Lumina's value comes from running *many* tests, and every
``run_test`` is an independent, seed-deterministic simulation — a
perfect fan-out target. :class:`ParallelRunner` maps picklable task
payloads over a ``spawn``-safe :class:`~concurrent.futures.\
ProcessPoolExecutor` and hides the operational sharp edges:

* ``workers=1`` (or an unavailable pool) degrades to in-process serial
  execution with identical semantics: each task runs under a throwaway
  coverage scope, as isolated as it would be in a pool worker,
* per-task timeouts kill the wedged pool and carry on,
* a worker crash (``BrokenProcessPool``) re-runs the affected tasks on
  a fresh pool, and after ``max_retries`` attempts runs them in-process
  so a dying pool never loses campaign work,
* workers run each task with the parent session's facets on; their
  metrics registries are snapshotted and merged into the parent's
  session in task order, keeping merged metrics deterministic for any
  worker count,
* :meth:`ParallelRunner.map_batch` is the one campaign fan-out: it
  replays store hits, runs only the misses, writes fresh values back
  and folds the coverage every value carries, in payload order. The
  sweep, the conformance suite and the fuzzer all go through it.

Determinism contract: the runner never reorders results (outcome ``i``
always corresponds to payload ``i``) and injects no randomness, so any
campaign whose tasks are themselves deterministic produces identical
results for every value of ``workers``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import operator
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import (TYPE_CHECKING, Any, Callable, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # avoid a runtime exec -> store import cycle
    from ..store.index import CampaignStore

from .. import sessions
from . import worker as worker_mod

__all__ = ["TaskOutcome", "RunnerStats", "ParallelRunner", "TaskCodec",
           "UnpicklableTaskError"]


class UnpicklableTaskError(TypeError):
    """A task function or payload cannot cross the spawn boundary.

    Raised *before* any submission, naming the offending field — a
    non-picklable payload would otherwise surface much later as an
    opaque worker crash followed by pointless retries.
    """


def _unpicklable_path(obj: Any, prefix: str) -> Optional[Tuple[str, str]]:
    """(path, reason) for the deepest unpicklable element, or None.

    Descends dicts, dataclasses and sequences so the error names the
    actual field (``payload['config'].on_done``) rather than the
    payload as a whole.
    """
    try:
        pickle.dumps(obj)
        return None
    except Exception as exc:
        failure = (prefix, f"{type(exc).__name__}: {exc}")
    children: List[Tuple[str, Any]] = []
    if isinstance(obj, dict):
        children = [(f"{prefix}[{key!r}]", value)
                    for key, value in obj.items()]
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [(f"{prefix}.{f.name}", getattr(obj, f.name))
                    for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        children = [(f"{prefix}[{index}]", value)
                    for index, value in enumerate(obj)]
    for path, value in children:
        deeper = _unpicklable_path(value, path)
        if deeper is not None:
            return deeper
    return failure

#: Consecutive pool breakages after which the runner stops rebuilding
#: pools and finishes the campaign in-process.
_MAX_POOL_BREAKS = 3


@dataclass
class TaskOutcome:
    """Result envelope for one mapped payload (same index as input).

    ``cached`` marks outcomes that :meth:`ParallelRunner.map_batch`
    replayed from a campaign store rather than executed, so hit and
    miss cells flow through one reporting path.
    """

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    cached: bool = False


def _identity(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class TaskCodec:
    """How one campaign's task values are stored and carry coverage.

    ``kind`` tags the store entry, ``encode``/``decode`` convert a value
    to and from its JSON-able stored form, and ``coverage`` returns the
    coverage snapshot a value carries (``None`` when it carries none;
    by default the value's ``coverage`` attribute, as on a ``Score`` or
    a ``CheckResult``).
    """

    kind: str
    encode: Callable[[Any], Any] = _identity
    decode: Callable[[Any], Any] = _identity
    coverage: Callable[[Any], Optional[list]] = \
        operator.attrgetter("coverage")


@dataclass
class RunnerStats:
    """Operational counters accumulated across ``map`` calls."""

    tasks_completed: int = 0
    tasks_failed: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    in_process_runs: int = 0
    pools_created: int = 0


class ParallelRunner:
    """Maps payloads through a task function on a process pool.

    ``task_fn`` must be a module-level callable (pickled by reference
    into ``spawn``-ed workers) taking one picklable payload and
    returning one picklable value.
    """

    def __init__(self, task_fn: Callable[[Any], Any], workers: int = 1,
                 task_timeout_s: Optional[float] = None,
                 max_retries: int = 2):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1:
            problem = _unpicklable_path(task_fn, "task_fn")
            if problem is not None:
                name = getattr(task_fn, "__qualname__", None) or repr(task_fn)
                raise UnpicklableTaskError(
                    f"task_fn {name} cannot be pickled by reference into "
                    f"spawn workers ({problem[1]}); pass a module-level "
                    f"function (see repro.exec.tasks)")
        self.task_fn = task_fn
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_retries = max(1, max_retries)
        self.stats = RunnerStats()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_dead = False
        self._pool_breaks = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """The live pool, a fresh one, or None when pools are unusable."""
        if self._pool is not None:
            return self._pool
        if self._pool_dead or self.workers <= 1:
            return None
        try:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context("spawn"),
                initializer=worker_mod.init_worker,
            )
            self.stats.pools_created += 1
        except Exception:
            # The platform cannot give us a pool (no semaphores, no
            # spawn support, ...): run the whole campaign in-process.
            self._pool_dead = True
            self._pool = None
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down hard (used on timeout / worker crash)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        # shutdown() leaves workers running their current task; a
        # wedged task would otherwise stall interpreter exit.
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        self._pool_breaks += 1
        if self._pool_breaks >= _MAX_POOL_BREAKS:
            self._pool_dead = True

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_in_process(self, index: int, payload: Any,
                        attempts: int = 1) -> TaskOutcome:
        self.stats.in_process_runs += 1
        try:
            # A throwaway coverage scope, as private as a pool worker's
            # session: hits the task folds itself (``run_test`` does)
            # vanish here, and reach the session only through the value
            # that map_batch folds.
            with sessions.current().scope():
                value = self.task_fn(payload)
        except Exception as exc:
            self.stats.tasks_failed += 1
            return TaskOutcome(index=index, ok=False,
                               error=f"{type(exc).__name__}: {exc}",
                               attempts=attempts)
        self.stats.tasks_completed += 1
        return TaskOutcome(index=index, ok=True, value=value,
                           attempts=attempts)

    def map(self, payloads: Sequence[Any]) -> List[TaskOutcome]:
        """Run every payload; outcomes come back in payload order.

        Never raises for task-level failures — inspect the outcomes.
        The exception is a *programming* error: a payload that cannot
        be pickled into the spawn workers raises
        :class:`UnpicklableTaskError` (naming the offending field)
        before anything is submitted.
        """
        if self.workers > 1 and not self._pool_dead:
            for index, payload in enumerate(payloads):
                problem = _unpicklable_path(payload, f"payloads[{index}]")
                if problem is not None:
                    path, reason = problem
                    raise UnpicklableTaskError(
                        f"{path} cannot be pickled into spawn workers: "
                        f"{reason}; campaign payloads must be plain "
                        f"picklable data")
        n = len(payloads)
        outcomes: List[Optional[TaskOutcome]] = [None] * n
        session = sessions.current()
        facets = session.facets()

        pending = list(range(n))
        attempts = [0] * n
        snapshots: dict = {}
        while pending:
            pool = self._ensure_pool()
            if pool is None:
                for i in pending:
                    outcomes[i] = self._run_in_process(
                        i, payloads[i], attempts=attempts[i] + 1)
                break
            futures = {
                i: pool.submit(worker_mod.invoke, self.task_fn,
                               payloads[i], facets)
                for i in pending
            }
            next_pending: List[int] = []
            broken = False
            for i in pending:
                if broken:
                    # The pool died mid-batch; everything still
                    # outstanding goes around again on a fresh pool.
                    next_pending.append(i)
                    continue
                try:
                    value, snap = futures[i].result(
                        timeout=self.task_timeout_s)
                except concurrent.futures.TimeoutError:
                    # The worker is wedged; nothing safe to do but
                    # abandon the task and replace the pool.
                    self.stats.timeouts += 1
                    self.stats.tasks_failed += 1
                    outcomes[i] = TaskOutcome(
                        index=i, ok=False, attempts=attempts[i] + 1,
                        error=f"timed out after {self.task_timeout_s}s")
                    self._kill_pool()
                    broken = True
                except (BrokenProcessPool,
                        concurrent.futures.CancelledError):
                    self.stats.worker_crashes += 1
                    attempts[i] += 1
                    if attempts[i] >= self.max_retries:
                        # Last resort: run where a crash cannot be
                        # papered over. The campaign keeps its result.
                        outcomes[i] = self._run_in_process(
                            i, payloads[i], attempts=attempts[i] + 1)
                    else:
                        next_pending.append(i)
                    self._kill_pool()
                    broken = True
                except Exception as exc:
                    # The task itself raised (pool is fine). Tasks are
                    # deterministic, so retrying would fail the same way.
                    self.stats.tasks_failed += 1
                    outcomes[i] = TaskOutcome(
                        index=i, ok=False, attempts=attempts[i] + 1,
                        error=f"{type(exc).__name__}: {exc}")
                else:
                    self.stats.tasks_completed += 1
                    outcomes[i] = TaskOutcome(
                        index=i, ok=True, value=value,
                        attempts=attempts[i] + 1)
                    if snap:
                        snapshots[i] = snap
            if not broken:
                self._pool_breaks = 0
            pending = next_pending

        # Merge worker telemetry in task order so the parent registry
        # is identical for any worker count / completion order.
        for i in sorted(snapshots):
            session.registry.merge(snapshots[i])
        return outcomes  # type: ignore[return-value]

    def map_batch(self, payloads: Sequence[Any], codec: TaskCodec,
                  store: Optional["CampaignStore"] = None,
                  fingerprints: Optional[Sequence[str]] = None,
                  ) -> List[TaskOutcome]:
        """One campaign batch: replay store hits, run the misses, fold.

        With a ``store``, ``fingerprints[i]`` addresses payload ``i``:
        a hit is decoded into a ``cached`` outcome without running, and
        only the misses go through :meth:`map` (a fully cached batch
        builds no pool). Successful fresh values are written back in
        payload order; failures never are. Then, with coverage on, the
        snapshot each successful value carries is folded into the
        session in payload order — the one fold for cached, pooled and
        in-process outcomes alike, which keeps the session map
        identical for any worker count.
        """
        outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
        misses = list(range(len(payloads)))
        fps: Sequence[str] = fingerprints or ()
        if store is not None:
            misses = []
            for i, fp in enumerate(fps):
                stored = store.get(fp)
                if stored is None:
                    misses.append(i)
                else:
                    outcomes[i] = TaskOutcome(index=i, ok=True, cached=True,
                                              value=codec.decode(stored))
        if misses:
            fresh = self.map([payloads[i] for i in misses])
            for i, outcome in zip(misses, fresh):
                outcome.index = i
                outcomes[i] = outcome
                if store is not None and outcome.ok:
                    store.put(fps[i], codec.kind,
                              codec.encode(outcome.value))
        session = sessions.current()
        if session.coverage_on:
            for outcome in outcomes:
                rows = codec.coverage(outcome.value) if outcome.ok else None
                if rows:
                    session.merge_snapshot(rows)
        return outcomes  # type: ignore[return-value]
