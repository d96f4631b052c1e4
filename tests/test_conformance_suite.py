"""Tests for the conformance suite (the paper's 'ImageNet-like benchmark')."""

import pytest

from repro.core.suite import CHECKS, CheckResult, Scorecard, run_conformance_suite


@pytest.fixture(scope="module")
def cards():
    """One full battery per NIC, shared across this module's tests."""
    return {nic: run_conformance_suite(nic)
            for nic in ("ideal", "cx4", "cx5", "cx6", "e810")}


class TestScorecard:
    def test_all_checks_run(self, cards):
        for card in cards.values():
            assert card.total == len(CHECKS)
            assert {r.name for r in card.results} == set(CHECKS)

    def test_ideal_profile_is_fully_conformant(self, cards):
        assert cards["ideal"].all_passed, cards["ideal"].render()

    def test_cx5_is_fully_conformant(self, cards):
        # CX5's bugs (MigReq slow path) need an E810 peer; on a
        # same-NIC battery it is clean — consistent with Table 2.
        assert cards["cx5"].all_passed, cards["cx5"].render()

    def test_cx6_fails_exactly_ets(self, cards):
        failed = {r.name for r in cards["cx6"].failures()}
        assert failed == {"ets-work-conservation"}

    def test_cx4_failures_match_its_bugs(self, cards):
        failed = {r.name for r in cards["cx4"].failures()}
        assert "counter-consistency" in failed       # implied_nak stuck
        assert "isolation-under-read-loss" in failed  # noisy neighbor
        assert "recovery-latency" in failed           # ~170 µs reaction
        assert "gbn-logic" not in failed              # §6.1: logic is fine

    def test_e810_failures_match_its_bugs(self, cards):
        failed = {r.name for r in cards["e810"].failures()}
        assert "counter-consistency" in failed        # cnpSent stuck
        assert "read-loss-recovery" in failed         # 83 ms slow path
        assert "isolation-under-read-loss" not in failed

    def test_every_nic_tolerates_reordering(self, cards):
        # Reordering costs one NAK + duplicate round on every model; no
        # NIC needs a timeout for it.
        for nic, card in cards.items():
            result = next(r for r in card.results
                          if r.name == "reorder-tolerance")
            assert result.passed, f"{nic}: {result.detail}"

    def test_every_nic_implements_rnr_flow_control(self, cards):
        for nic, card in cards.items():
            result = next(r for r in card.results
                          if r.name == "rnr-flow-control")
            assert result.passed, f"{nic}: {result.detail}"

    def test_every_nic_passes_gbn_logic(self, cards):
        # §6.1: "all the RNICs pass our FSM-based retransmission logic
        # check".
        for nic, card in cards.items():
            result = next(r for r in card.results if r.name == "gbn-logic")
            assert result.passed, f"{nic}: {result.detail}"

    def test_render_contains_all_checks(self, cards):
        text = cards["cx6"].render()
        for name in CHECKS:
            assert name in text
        assert "13/14" in text


class TestSuiteApi:
    def test_subset_selection(self):
        card = run_conformance_suite("ideal",
                                     checks=["gbn-logic", "cnp-generation"])
        assert card.total == 2

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_conformance_suite("ideal", checks=["warp-drive"])

    def test_deterministic_for_seed(self):
        a = run_conformance_suite("cx6", seed=5,
                                  checks=["ets-work-conservation"])
        b = run_conformance_suite("cx6", seed=5,
                                  checks=["ets-work-conservation"])
        assert a.results[0].detail == b.results[0].detail

    def test_raising_check_fails_without_aborting_at_one_worker(
            self, monkeypatch):
        # workers=1 follows the pool's rule: a check that raises becomes
        # a failed verdict and the rest of the battery still runs.
        def broken(nic, seed, scenario):
            raise RuntimeError("model blew up")

        monkeypatch.setitem(CHECKS, "cnp-generation", broken)
        card = run_conformance_suite(
            "ideal", checks=["cnp-generation", "gbn-logic"], workers=1)
        failed, passed = card.results
        assert not failed.passed
        assert failed.detail == \
            "execution failed: RuntimeError: model blew up"
        assert passed.passed

    def test_check_result_str(self):
        result = CheckResult("x", True, "fine")
        assert "PASS" in str(result)
        assert "FAIL" in str(CheckResult("x", False, "bad"))

    def test_empty_scorecard(self):
        card = Scorecard(nic="ideal")
        assert card.total == 0
        assert card.all_passed  # vacuously

    def test_cli_suite_command(self, capsys):
        from repro.__main__ import main

        code = main(["suite", "cx6", "--checks", "gbn-logic"])
        out = capsys.readouterr().out
        assert "Conformance scorecard: cx6" in out
        assert code == 0
