"""The one observability session: independent facets, scopes, lifecycle.

Telemetry (the metrics facet) and coverage (the coverage facet) share
one :class:`repro.sessions.Session`; switching either facet must leave
the other's state alone, and :func:`repro.sessions.session_scope` must
switch off only the facets it switched on.
"""

import pytest

from repro.coverage import runtime as coverage
from repro.coverage.map import NULL_DOMAIN
from repro.coverage.recorder import NULL_RECORDER
from repro.exec import worker
from repro.sessions import current, session_scope
from repro.telemetry import runtime as telemetry
from repro.telemetry.metrics import NULL_COUNTER


@pytest.fixture(autouse=True)
def _clean_session():
    telemetry.disable()
    coverage.disable()
    yield
    telemetry.disable()
    coverage.disable()


class TestFacetIndependence:
    def test_counters_survive_a_coverage_cycle(self):
        tel = telemetry.enable()
        tel.counter("pkts").inc(3)
        coverage.enable()
        coverage.current().domain("rdma.gbn").hit("nak-sent", 5)
        coverage.disable()
        assert telemetry.active() is tel
        assert tel.registry.find("pkts").value == 3

    def test_coverage_map_survives_a_telemetry_cycle(self):
        cov = coverage.enable()
        cov.domain("rdma.gbn").hit("nak-sent", 5)
        telemetry.enable()
        telemetry.current().counter("pkts").inc()
        telemetry.disable()
        assert coverage.active() is cov
        assert cov.total_snapshot() == [["rdma.gbn", "nak-sent", 1, 5]]

    def test_off_facets_hand_out_null_handles(self):
        session = current()
        assert telemetry.active() is None and coverage.active() is None
        assert session.counter("x") is NULL_COUNTER
        assert session.domain("d") is NULL_DOMAIN
        assert session.recorder("c") is NULL_RECORDER
        assert session.total_snapshot() == []
        assert session.flight_snapshot() == []
        with pytest.raises(RuntimeError):
            session.export("unused")


class TestScope:
    def test_scope_isolates_and_pops_without_folding(self):
        cov = coverage.enable()
        handle = cov.domain("rdma.gbn")
        handle.hit("outer", 1)
        with cov.scope() as inner:
            handle.hit("inner", 2)
            assert cov.total_snapshot() == [["rdma.gbn", "inner", 1, 2],
                                            ["rdma.gbn", "outer", 1, 1]]
        assert inner.snapshot() == [["rdma.gbn", "inner", 1, 2]]
        assert cov.total_snapshot() == [["rdma.gbn", "outer", 1, 1]]

    def test_scope_pops_on_error(self):
        cov = coverage.enable()
        root = cov.live
        with pytest.raises(ValueError):
            with cov.scope():
                raise ValueError("boom")
        assert cov.live is root


class TestSessionScope:
    def test_in_memory_coverage_leaves_telemetry_alone(self, tmp_path,
                                                       capsys):
        with session_scope(telemetry=str(tmp_path)) as session:
            session.counter("outer").inc()
            with session_scope(coverage=True) as inner:
                assert inner is session
                assert coverage.active() is session
                session.domain("rdma.gbn").hit("nak-sent", 1)
            assert coverage.active() is None
            assert telemetry.active() is session
            assert session.registry.find("outer").value == 1
        assert telemetry.active() is None
        prom = (tmp_path / "metrics.prom").read_text()
        assert "outer" in prom
        assert "coverage_points_hit" not in prom
        assert "coverage written" not in capsys.readouterr().out

    def test_false_facets_are_left_as_they_are(self):
        cov = coverage.enable()
        with session_scope(False, False):
            pass
        assert coverage.active() is cov

    def test_worker_invoke_mirrors_the_parent_facets(self):
        def task(payload):
            telemetry.current().counter("ran").inc(payload)
            coverage.current().domain("d").hit("p")
            return coverage.active() is not None

        on, snapshot = worker.invoke(task, 2, (True, True))
        assert on and [m["name"] for m in snapshot] == ["ran"]
        assert current().facets() == (False, False)
        assert worker.invoke(task, 2, (False, False)) == (False, [])
