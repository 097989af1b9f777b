"""PlanService dispatch, memos, and the PlanResult schema."""

import math

import pytest

from repro.api.scenario import (
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)
from repro.api.service import PlanResult, PlanService, validate_result_payload
from repro.experiments.fig19_multiwafer import scenario_for_multiwafer


def _scenario(model="gpt3-6.7b", **solver_kwargs) -> Scenario:
    return Scenario(workload=WorkloadSpec(model=model),
                    solver=SolverSpec(**solver_kwargs))


class TestDispatch:
    @pytest.fixture(scope="class")
    def service(self):
        return PlanService()

    def test_single_wafer_search(self, service):
        result = service.evaluate(_scenario(scheme="fsdp", engine="smap"))
        assert result.kind == "single_wafer"
        assert result.scheme == "fsdp" and result.engine == "smap"
        assert not result.oom
        assert result.step_time > 0 and result.throughput > 0
        assert result.candidates_evaluated > 1

    def test_fixed_spec_skips_search(self, service):
        result = service.evaluate(
            _scenario(fixed_spec={"dp": 4, "tatp": 8}))
        assert result.kind == "fixed_spec"
        assert result.candidates_evaluated == 1
        assert result.spec == "(dp=4,tp=1,sp=1,tatp=8)"

    def test_multi_wafer_path(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-175b"),
            hardware=HardwareSpec(num_wafers=2, num_microbatches=8),
            solver=SolverSpec.for_framework()))
        assert result.kind == "multi_wafer"
        assert result.num_wafers == 2
        assert result.pp_degree >= 2
        assert result.bubble_time >= 0

    def test_multi_wafer_scenarios_share_the_wafer_memo(self):
        service = PlanService()
        for system in ("MeSP+GMap", "TEMP"):
            service.evaluate(scenario_for_multiwafer("gpt3-175b", system))
        assert service.stats()["memos"]["wafers"] == {
            "hits": 1, "misses": 1, "entries": 1, "evictions": 0}

    def test_fault_path_zero_rate_is_lossless(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(core_fault_rate=0.0),
            solver=SolverSpec(fixed_spec={"dp": 4, "tatp": 8})))
        assert result.kind == "fault"
        assert result.relative_throughput == pytest.approx(1.0)

    def test_fault_path_requires_fixed_spec(self, service):
        scenario = Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                            hardware=HardwareSpec(link_fault_rate=0.2))
        with pytest.raises(ScenarioError, match="fixed_spec"):
            service.evaluate(scenario)

    def test_gpu_cluster_path(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(platform="gpu_cluster"),
            solver=SolverSpec(scheme="mesp", engine="cluster")))
        assert result.kind == "gpu_cluster"
        assert not result.oom
        assert result.step_time > 0

    def test_wafer_cache_reuses_geometry(self, service):
        hardware = HardwareSpec(rows=2, cols=4)
        assert service.wafer_for(hardware) is service.wafer_for(hardware)

    def test_fault_path_honours_geometry(self, service):
        result = service.evaluate(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b"),
            hardware=HardwareSpec(rows=8, cols=10, core_fault_rate=0.0),
            solver=SolverSpec(fixed_spec={"dp": 10, "tatp": 8})))
        assert result.kind == "fault"
        assert result.relative_throughput == pytest.approx(1.0)

    def test_multi_wafer_path_honours_geometry(self, service):
        raw = service.evaluate_raw(Scenario(
            workload=WorkloadSpec(model="gpt3-6.7b", batch_size=8,
                                  seq_length=512, num_layers=2),
            hardware=HardwareSpec(rows=2, cols=2, num_wafers=2,
                                  num_microbatches=4),
            solver=SolverSpec(scheme="mesp", engine="gmap")))
        # Two 4-die wafers: the winning spec fills 8 devices, not 64.
        assert raw.num_wafers == 2
        assert raw.best_spec.total_degree == 8

    def test_inconsistent_hardware_combos_rejected(self):
        with pytest.raises(ScenarioError, match="multi-wafer"):
            HardwareSpec(num_wafers=2, link_fault_rate=0.4)
        with pytest.raises(ScenarioError, match="wafer platform"):
            HardwareSpec(platform="gpu_cluster", core_fault_rate=0.1)
        with pytest.raises(ScenarioError, match="num_wafers"):
            HardwareSpec(platform="gpu_cluster", num_wafers=2)
        with pytest.raises(ScenarioError, match="gpu_cluster comparator"):
            HardwareSpec(platform="gpu_cluster", rows=8, cols=8)
        with pytest.raises(ScenarioError, match="gpu_cluster comparator"):
            HardwareSpec(platform="gpu_cluster", hbm_capacity=1e11)

    def test_invalid_fixed_spec_degree_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid fixed_spec"):
            SolverSpec(fixed_spec={"dp": 0}).resolve_fixed_spec()

    def test_shared_cache_is_pure_memoisation(self):
        scenario = _scenario(scheme="mesp", engine="smap")
        cold = PlanService().evaluate(scenario)
        service = PlanService()
        service.evaluate(_scenario(scheme="mesp", engine="gmap"))  # warm it
        warm = service.evaluate(scenario)
        assert cold == warm


class TestPlanResult:
    def test_to_dict_is_json_safe_and_validates(self):
        result = PlanService().evaluate(_scenario(max_candidates=4))
        payload = result.to_dict()
        assert validate_result_payload(payload) == []
        import json
        json.dumps(payload, allow_nan=False)

    def test_validator_flags_missing_and_extra_keys(self):
        result = PlanService().evaluate(_scenario(max_candidates=4))
        payload = result.to_dict()
        payload.pop("step_time")
        payload["surprise"] = 1
        problems = validate_result_payload(payload)
        assert any("missing" in problem for problem in problems)
        assert any("unexpected" in problem for problem in problems)

    def test_validator_flags_schema_version_and_kind(self):
        payload = PlanService().evaluate(_scenario(max_candidates=4)).to_dict()
        payload["schema_version"] = 99
        payload["kind"] = "quantum"
        problems = validate_result_payload(payload)
        assert any("schema_version" in problem for problem in problems)
        assert any("kind" in problem for problem in problems)

    def test_oom_step_time_serialises_as_null(self):
        result = PlanResult.from_gpu("m", "mesp", "cluster",
                                     float("inf"), 0.0, 3)
        assert result.oom
        assert result.to_dict()["step_time"] is None
        assert math.isinf(result.step_time)


class TestSolve:
    def test_solve_returns_flat_outcome(self, gpt3_6b):
        outcome = PlanService().solve(_scenario(ga_generations=4))
        assert outcome.model == "gpt3-6.7b"
        assert not outcome.oom
        assert outcome.candidates_considered > 0
        assert outcome.finalists_simulated >= 1
        assert outcome.evaluations > 0
        assert validate_result_payload.__name__  # smoke: module linkage

    def test_solve_rejects_gpu_platform(self):
        scenario = Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                            hardware=HardwareSpec(platform="gpu_cluster"))
        with pytest.raises(ScenarioError, match="wafer platform"):
            PlanService().solve(scenario)
