"""Work shared across scenarios: subset gathers, service memos, bit-parity.

The memos of :class:`~repro.api.service.PlanService` (wafers with their
route tables, solver cost tables) are pure memoisation, so every test here is an exact-equality test — no tolerances:
one shared service must be indistinguishable from a fresh service per
scenario, with and without evictions.
"""

import json

import numpy as np
import pytest

import repro.api.service as service_module
from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService, _Memo
from repro.costmodel.tables import CostTables
from repro.hardware.config import default_wafer_config
from repro.parallelism.spec import ParallelSpec
from repro.simulation.config import SimulatorConfig
from repro.workloads.transformer import representative_layer_graph


@pytest.fixture(scope="module")
def candidates():
    return [
        ParallelSpec(dp=32),
        ParallelSpec(dp=4, tatp=8),
        ParallelSpec(dp=2, tp=2, tatp=8),
        ParallelSpec(fsdp=32),
        ParallelSpec(tp=8, sp=4),
        ParallelSpec(dp=2, cp=2, tp=8),
    ]


@pytest.fixture(scope="module")
def parent_tables(gpt3_6b, candidates):
    graph = representative_layer_graph(gpt3_6b)
    return CostTables(graph, candidates, default_wafer_config(),
                      SimulatorConfig())


@pytest.fixture(scope="module")
def fig13():
    from repro.api.portfolio import ensure_loaded, get_portfolio

    ensure_loaded()
    portfolio = get_portfolio("fig13").build(True)
    return portfolio, portfolio.expand()


class TestSubset:
    def test_gathered_cells_bit_identical_to_fresh_build(
            self, gpt3_6b, candidates, parent_tables):
        sub = [candidates[4], candidates[1], candidates[2]]
        child = parent_tables.subset(sub)
        fresh = CostTables(parent_tables.graph, sub, default_wafer_config(),
                           SimulatorConfig())
        assert child.candidates == sub
        np.testing.assert_array_equal(child.intra_matrix(),
                                      fresh.intra_matrix())
        for node in parent_tables.graph.nodes():
            np.testing.assert_array_equal(child.memory_row(node.node_id),
                                          fresh.memory_row(node.node_id))
            np.testing.assert_array_equal(
                child.reshard_matrix(node.node_id),
                fresh.reshard_matrix(node.node_id))

    def test_uncovered_candidate_rejected(self, parent_tables):
        with pytest.raises(ValueError, match="not covered"):
            parent_tables.subset([ParallelSpec(tatp=32)])


def _payloads(service, scenarios):
    return [service.evaluate(scenario).to_dict() for scenario in scenarios]


def _solve_scenario(max_tatp=32, **hardware):
    return Scenario(
        workload=WorkloadSpec(model="gpt3-6.7b"),
        hardware=HardwareSpec(**hardware),
        solver=SolverSpec(max_tatp=max_tatp, ga_generations=2))


def _solve(service, scenario):
    """A solve's payload minus its wall-clock ``search_seconds``."""
    payload = service.solve(scenario).to_dict()
    payload.pop("search_seconds")
    return payload


class TestSharedTables:
    def test_repeat_solve_reuses_tables_bit_identically(self):
        service = PlanService()
        first = _solve(service, _solve_scenario())
        second = _solve(service, _solve_scenario())
        assert second == first
        assert service.stats()["memos"]["tables"] == {
            "hits": 1, "misses": 1, "entries": 1, "evictions": 0}

    def test_narrowed_candidates_reuse_parent_cells(self):
        service = PlanService()
        wide = service.solve_raw(_solve_scenario())
        narrow = service.solve_raw(_solve_scenario(max_tatp=4))
        assert narrow.candidates_considered < wide.candidates_considered
        tables = service.stats()["memos"]["tables"]
        assert tables["hits"] == 1 and tables["entries"] == 1
        fresh = _solve(PlanService(), _solve_scenario(max_tatp=4))
        assert _solve(service, _solve_scenario(max_tatp=4)) == fresh

    def test_stats_shape(self):
        memos = PlanService().stats()["memos"]
        assert set(memos) == {"wafers", "tables"}
        for counters in memos.values():
            assert counters == {"hits": 0, "misses": 0, "entries": 0,
                                "evictions": 0}

    def test_wafer_memo_keyed_by_geometry_and_fabric(self):
        service = PlanService()
        mesh = service.wafer_for(HardwareSpec())
        assert service.wafer_for(HardwareSpec(base_mfu=0.3)) is mesh
        torus = service.wafer_for(HardwareSpec(topology={"name": "torus"}))
        assert torus is not mesh
        assert service.stats()["memos"]["wafers"] == {
            "hits": 1, "misses": 2, "entries": 2, "evictions": 0}

    def test_simulator_configs_share_wafer_not_results(self):
        """One wafer, two simulator configs: each keeps its own result."""
        scenarios = [
            Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                     hardware=HardwareSpec(base_mfu=base_mfu),
                     solver=SolverSpec(scheme="mesp", engine="gmap",
                                       max_candidates=3))
            for base_mfu in (None, 0.3)]
        fresh = [PlanService().evaluate(scenario).to_dict()
                 for scenario in scenarios]
        assert fresh[0] != fresh[1]
        service = PlanService()
        assert _payloads(service, scenarios) == fresh
        assert service.stats()["memos"]["wafers"] == {
            "hits": 1, "misses": 1, "entries": 1, "evictions": 0}


class TestBatchedSweepParity:
    """Sweeps share one service's memos; rows must not show it."""

    def test_fig13_reduced_rows_bit_identical(self, fig13):
        """One shared service == a fresh service per point, byte for byte."""
        _, points = fig13
        scenarios = [point.scenario for point in points]
        shared = _payloads(PlanService(), scenarios)
        fresh = [PlanService().evaluate(scenario).to_dict()
                 for scenario in scenarios]
        assert shared == fresh
        assert (json.dumps(shared, sort_keys=True)
                == json.dumps(fresh, sort_keys=True))

    def test_batched_service_records_sharing(self, fig13):
        """Evaluating a point twice routes nothing anew the second time."""
        _, points = fig13
        service = PlanService()
        service.evaluate(points[0].scenario)
        wafer = service.wafer_for(points[0].scenario.hardware)
        first = wafer.topology.route_tables.stats()
        service.evaluate(points[0].scenario)
        second = wafer.topology.route_tables.stats()
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]
        assert service.stats()["memos"]["wafers"] == {
            "hits": 2, "misses": 1, "entries": 1, "evictions": 0}

    def test_worker_pool_rows_match_in_process_rows(self, fig13):
        """Shared memos and a worker pool compose with no flag."""
        from repro.server.portfolio import run_portfolio_local

        portfolio, points = fig13
        serial = run_portfolio_local(portfolio, jobs=1, points=points)
        pooled = run_portfolio_local(portfolio, jobs=2, points=points)
        assert len(pooled) == len(serial) == len(points)
        assert ([outcome.payload for outcome in pooled]
                == [outcome.payload for outcome in serial])

    def test_evictions_keep_payloads_bit_identical(self, monkeypatch):
        """Memos of one entry, thrashed by two hardware specs."""
        for name in ("WAFER_MEMO_SIZE", "TABLES_MEMO_SIZE"):
            monkeypatch.setattr(service_module, name, 1)
        specs = [HardwareSpec(), HardwareSpec(rows=2, cols=4)]
        scenarios = [
            Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                     hardware=hardware,
                     solver=SolverSpec(scheme="mesp", engine="gmap",
                                       max_candidates=3))
            for hardware in specs]
        solves = [_solve_scenario(**{"rows": hardware.rows,
                                     "cols": hardware.cols})
                  for hardware in specs]
        expected = [PlanService().evaluate(scenario).to_dict()
                    for scenario in scenarios]
        expected_solves = [_solve(PlanService(), scenario)
                           for scenario in solves]
        service = PlanService()
        evictions = []
        for _ in range(2):
            assert _payloads(service, scenarios) == expected
            assert [_solve(service, scenario)
                    for scenario in solves] == expected_solves
            evictions.append({name: counters["evictions"] for name, counters
                              in service.stats()["memos"].items()})
        for name in ("wafers", "tables"):
            assert 0 < evictions[0][name] < evictions[1][name], evictions
        assert all(counters["entries"] == 1
                   for counters in service.stats()["memos"].values())


class TestMemo:
    def test_lookup_refreshes_recency(self):
        memo = _Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert memo.stats() == {"hits": 0, "misses": 0, "entries": 2,
                                "evictions": 1}

    def test_get_or_build_builds_once_per_residency(self):
        memo = _Memo(1)
        built = []

        def build():
            built.append(len(built))
            return len(built)

        assert memo.get_or_build("k", build) == 1
        assert memo.get_or_build("k", build) == 1
        assert memo.get_or_build("j", build) == 2
        assert memo.get_or_build("k", build) == 3
        assert memo.stats() == {"hits": 1, "misses": 3, "entries": 1,
                                "evictions": 2}
