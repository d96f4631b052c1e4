"""Tests for the genetic fuzzing module (Algorithm 1)."""

import pytest

from repro import quick_config
from repro.core.config import DataPacketEvent, TrafficConfig
from repro.core.fuzz import (
    LuminaFuzzer,
    MUTATORS,
    Score,
    ScoreWeights,
    clamp_events,
    mutate,
    score_result,
)
from repro.core.orchestrator import run_test
from repro.sim.rng import SimRandom

from conftest import drop, run_scenario


class TestMutators:
    def test_mutation_always_yields_valid_config(self):
        rng = SimRandom(5)
        traffic = TrafficConfig(num_connections=4, message_size=10240,
                                data_pkt_events=(DataPacketEvent(1, 5, "drop"),))
        for _ in range(300):
            traffic = mutate(traffic, rng)
            # Constructor validation ran inside mutate; re-validate the
            # invariants the orchestrator depends on.
            assert 1 <= traffic.num_connections <= 64
            for event in traffic.data_pkt_events:
                assert event.qpn <= traffic.num_connections
                assert event.psn <= traffic.packets_per_connection

    def test_clamp_drops_out_of_range_events(self):
        traffic = TrafficConfig(num_connections=2, message_size=10240,
                                data_pkt_events=(DataPacketEvent(2, 10, "drop"),))
        shrunk = clamp_events(
            TrafficConfig(num_connections=1, message_size=1024,
                          num_msgs_per_qp=1))
        assert not shrunk.data_pkt_events
        assert traffic.data_pkt_events  # original untouched

    def test_mutation_deterministic_per_seed(self):
        base = TrafficConfig(num_connections=2, message_size=10240)
        a = mutate(base, SimRandom(9), rounds=3)
        b = mutate(base, SimRandom(9), rounds=3)
        assert a == b

    def test_all_mutators_callable(self):
        rng = SimRandom(1)
        base = TrafficConfig(num_connections=4, message_size=10240)
        for mutator in MUTATORS:
            result = mutator(base, rng)
            assert isinstance(result, TrafficConfig)


class TestScoring:
    def test_clean_run_scores_zero(self):
        result = run_scenario(nic="cx5", verb="write", num_msgs=2,
                              message_size=4096)
        score = score_result(result)
        assert score.valid
        assert score.total == 0.0
        assert not score.anomalies

    def test_counter_bug_scores(self):
        result = run_scenario(nic="e810", verb="write", num_msgs=2,
                              message_size=4096,
                              events=(DataPacketEvent(1, 3, "ecn"),), seed=9)
        score = score_result(result)
        assert score.total >= 3.0
        assert "counter_inconsistency" in score.components

    def test_innocent_flow_penalty_scores_high(self):
        result = run_scenario(nic="cx4", verb="read", num_connections=20,
                              num_msgs=2, message_size=20480,
                              events=tuple(drop(qpn=q, psn=5)
                                           for q in range(1, 15)),
                              seed=11, max_duration_ms=60_000)
        score = score_result(result)
        assert "innocent_inflation" in score.components
        assert "unexplained_discards" in score.components

    def test_weights_scale_components(self):
        result = run_scenario(nic="e810", verb="write", num_msgs=2,
                              message_size=4096,
                              events=(DataPacketEvent(1, 3, "ecn"),), seed=9)
        light = score_result(result, ScoreWeights(counter_inconsistency=1.0))
        heavy = score_result(result, ScoreWeights(counter_inconsistency=10.0))
        assert heavy.total > light.total

    def test_score_add_ignores_non_positive(self):
        score = Score()
        score.add("x", 0.0)
        score.add("y", -1.0)
        assert score.total == 0.0
        assert not score.components


class TestFuzzer:
    def _base_config(self, nic="cx5"):
        return quick_config(nic=nic, verb="write", num_msgs=2,
                            message_size=10240, num_connections=2)

    def test_runs_requested_iterations(self):
        fuzzer = LuminaFuzzer(self._base_config(), seed=3)
        report = fuzzer.run(iterations=4)
        assert report.iterations_run == 4
        assert len(report.pool_scores) <= 4

    def test_raising_run_counts_as_invalid_at_one_worker(self):
        # workers=1 follows the pool's rule: a candidate whose run
        # raises is an invalid run, not the end of the campaign.
        calls = {"n": 0}

        def run_fn(config):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("candidate crashed the model")
            return run_test(config)

        report = LuminaFuzzer(self._base_config(), seed=3,
                              run_fn=run_fn).run(iterations=3, workers=1)
        assert calls["n"] == 3
        assert report.iterations_run == 3
        assert report.invalid_runs >= 1

    def test_deterministic_given_seed(self):
        a = LuminaFuzzer(self._base_config(), seed=3).run(iterations=4)
        b = LuminaFuzzer(self._base_config(), seed=3).run(iterations=4)
        assert a.pool_scores == b.pool_scores
        assert len(a.findings) == len(b.findings)

    def test_finds_e810_counter_bug(self):
        # Fuzzing an E810 pair: any mutated config that injects ECN hits
        # the stuck cnpSent counter — the fuzzer must surface it.
        fuzzer = LuminaFuzzer(self._base_config(nic="e810"), seed=7,
                              anomaly_threshold=2.5)
        report = fuzzer.run(iterations=12)
        assert report.found_anomaly
        best = report.best
        assert best is not None
        assert any("counter" in a for a in best.score.anomalies)

    def test_stop_on_first(self):
        fuzzer = LuminaFuzzer(self._base_config(nic="e810"), seed=7,
                              anomaly_threshold=2.5)
        report = fuzzer.run(iterations=30, stop_on_first=True)
        assert len(report.findings) == 1
        assert report.iterations_run < 30

    def test_pool_grows_with_selection(self):
        fuzzer = LuminaFuzzer(self._base_config(), seed=3)
        initial_pool = len(fuzzer.pool)
        fuzzer.run(iterations=6)
        assert len(fuzzer.pool) >= initial_pool

    def test_finding_config_replays(self):
        fuzzer = LuminaFuzzer(self._base_config(nic="e810"), seed=7,
                              anomaly_threshold=2.5)
        report = fuzzer.run(iterations=12)
        finding = report.best
        replay = run_test(finding.config)
        replay_score = score_result(replay)
        assert replay_score.total == pytest.approx(finding.score.total)

    def test_summary_text(self):
        fuzzer = LuminaFuzzer(self._base_config(nic="e810"), seed=7,
                              anomaly_threshold=2.5)
        report = fuzzer.run(iterations=12)
        assert "score=" in report.best.summary()
