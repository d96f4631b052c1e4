"""Tests for the process-pool campaign runner (repro.exec)."""

import pytest

from repro import sessions
from repro.coverage import runtime as coverage
from repro.exec import ParallelRunner, TaskCodec
from repro.exec import runner as runner_mod
from repro.exec.tasks import (
    crash_in_worker_task,
    echo_task,
    sleep_task,
    telemetry_probe_task,
)
from repro.store.fingerprint import fingerprint
from repro.store.index import CampaignStore
from repro.telemetry import runtime as telemetry


@pytest.fixture(autouse=True)
def _no_leaked_session():
    telemetry.disable()
    yield
    telemetry.disable()


def _double(payload):
    # Serial-path-only task: workers=1 never pickles task_fn, so a
    # test-module function is fine here (pool tasks live in exec.tasks).
    return payload * 2


def _explode(payload):
    raise ValueError(f"bad payload {payload}")


def _self_folding(payload):
    # Folds its own hits into the live scope, as run_test does, and
    # carries them on the value as well.
    rows = [["test.domain", f"p{payload}", 1, 0]]
    sessions.current().merge_snapshot(rows)
    return {"n": payload, "coverage": rows}


#: Identity store codec; the value's ``"coverage"`` entry is folded.
_CODEC = TaskCodec("echo", coverage=lambda value: value.get("coverage"))


class TestSerialPath:
    def test_workers_one_runs_in_process(self):
        with ParallelRunner(_double, workers=1) as runner:
            outcomes = runner.map([1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert runner.stats.pools_created == 0
        assert runner.stats.in_process_runs == 3

    def test_task_error_is_an_outcome_not_an_exception(self):
        with ParallelRunner(_explode, workers=1) as runner:
            outcomes = runner.map(["x"])
        assert not outcomes[0].ok
        assert "ValueError" in outcomes[0].error
        assert runner.stats.tasks_failed == 1

    def test_empty_map(self):
        with ParallelRunner(_double, workers=1) as runner:
            assert runner.map([]) == []

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(_double, workers=0)


class TestPoolPath:
    def test_results_keep_payload_order(self):
        payloads = list(range(7))
        with ParallelRunner(echo_task, workers=2) as runner:
            outcomes = runner.map(payloads)
        assert [o.value for o in outcomes] == payloads
        assert all(o.ok for o in outcomes)
        assert runner.stats.pools_created == 1
        assert runner.stats.in_process_runs == 0

    def test_pool_reused_across_map_calls(self):
        with ParallelRunner(echo_task, workers=2) as runner:
            runner.map([1, 2])
            runner.map([3, 4])
        assert runner.stats.pools_created == 1
        assert runner.stats.tasks_completed == 4

    def test_task_exception_in_worker_reported_not_raised(self):
        # float("oops") raises inside the worker; the pool survives.
        with ParallelRunner(sleep_task, workers=2) as runner:
            outcomes = runner.map([{"seconds": "oops"}, {"seconds": 0.01}])
        assert not outcomes[0].ok
        assert "ValueError" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 0.01


class TestFailureRecovery:
    def test_worker_crash_retries_then_falls_back_in_process(self):
        # The task kills its pool worker every time, so every payload
        # must eventually complete on the in-process fallback path —
        # the campaign loses no work to a dying pool.
        with ParallelRunner(crash_in_worker_task, workers=2,
                            max_retries=2) as runner:
            outcomes = runner.map([10, 20, 30])
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert all(o.ok for o in outcomes)
        assert runner.stats.in_process_runs >= 1
        assert runner.stats.worker_crashes >= 1

    def test_timeout_abandons_task_and_completes_the_rest(self):
        # Generous timeout: result(timeout=...) also covers the fresh
        # pool's spawn cold-start for the re-pended task.
        with ParallelRunner(sleep_task, workers=2,
                            task_timeout_s=2.0) as runner:
            outcomes = runner.map([{"seconds": 30.0}, {"seconds": 0.01}])
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 0.01
        assert runner.stats.timeouts == 1

    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def no_pools(*args, **kwargs):
            raise OSError("no process pools on this platform")

        monkeypatch.setattr(runner_mod.concurrent.futures,
                            "ProcessPoolExecutor", no_pools)
        with ParallelRunner(echo_task, workers=4) as runner:
            outcomes = runner.map([1, 2, 3])
        assert [o.value for o in outcomes] == [1, 2, 3]
        assert all(o.ok for o in outcomes)
        assert runner.stats.in_process_runs == 3
        assert runner.stats.pools_created == 0


class TestTelemetryMerge:
    def test_worker_metrics_merge_into_parent_session(self):
        session = telemetry.enable()
        try:
            with ParallelRunner(telemetry_probe_task, workers=2) as runner:
                outcomes = runner.map([{"n": 2}, {"n": 3}, {"n": 5}])
            assert all(o.ok for o in outcomes)
            counter = session.registry.find("exec_probe_events")
            assert counter is not None and counter.value == 10
        finally:
            telemetry.disable()

    def test_serial_path_updates_parent_registry_directly(self):
        session = telemetry.enable()
        try:
            with ParallelRunner(telemetry_probe_task, workers=1) as runner:
                runner.map([{"n": 4}])
            counter = session.registry.find("exec_probe_events")
            assert counter is not None and counter.value == 4
        finally:
            telemetry.disable()

    def test_no_session_no_collection(self):
        with ParallelRunner(telemetry_probe_task, workers=2) as runner:
            outcomes = runner.map([{"n": 1}])
        assert outcomes[0].ok
        assert telemetry.active() is None


class TestMapBatch:
    """The campaign fan-out: store replay, dispatch, write-back, fold."""

    @staticmethod
    def _store(tmp_path, payloads):
        store = CampaignStore(str(tmp_path / "store"))
        fps = [fingerprint("echo", p) for p in payloads]
        return store, fps

    def test_fully_cached_batch_builds_no_pool(self, tmp_path):
        payloads = [{"n": 1}, {"n": 2}]
        store, fps = self._store(tmp_path, payloads)
        for fp, payload in zip(fps, payloads):
            store.put(fp, "echo", payload)
        with ParallelRunner(echo_task, workers=2) as runner:
            outcomes = runner.map_batch(payloads, _CODEC, store, fps)
        assert [o.value for o in outcomes] == payloads
        assert all(o.ok and o.cached for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1]
        assert runner.stats.pools_created == 0
        assert runner.stats.tasks_completed == 0

    def test_partly_cached_batch_runs_only_the_misses(self, tmp_path):
        payloads = [1, 2, 3, 4]
        store, fps = self._store(tmp_path, payloads)
        store.put(fps[1], "echo", 200)
        store.put(fps[3], "echo", 400)
        with ParallelRunner(_double, workers=1) as runner:
            outcomes = runner.map_batch(payloads, TaskCodec("echo"),
                                        store, fps)
        assert [o.value for o in outcomes] == [2, 200, 6, 400]
        assert [o.cached for o in outcomes] == [False, True, False, True]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert runner.stats.in_process_runs == 2
        # Fresh values were written back: the same batch now replays.
        assert store.get(fps[0]) == 2 and store.get(fps[2]) == 6

    def test_failures_are_outcomes_and_never_stored(self, tmp_path):
        store, fps = self._store(tmp_path, ["x"])
        with ParallelRunner(_explode, workers=1) as runner:
            outcomes = runner.map_batch(["x"], _CODEC, store, fps)
        assert not outcomes[0].ok and "ValueError" in outcomes[0].error
        assert fps[0] not in store

    def test_in_process_coverage_folds_once(self, tmp_path):
        # The task's own fold lands in the runner's throwaway scope;
        # only map_batch's fold of the carried rows reaches the session.
        session = coverage.enable()
        try:
            with ParallelRunner(_self_folding, workers=1) as runner:
                runner.map_batch([1, 2], _CODEC)
            assert session.total_snapshot() == [
                ["test.domain", "p1", 1, 0], ["test.domain", "p2", 1, 0]]
        finally:
            coverage.disable()
