"""Tests for the wafer system object, faults, multi-wafer, and GPU cluster."""

import pytest

from repro.hardware.config import GB, TB
from repro.hardware.faults import FaultModel, FaultType, classify_faults
from repro.hardware.gpu_cluster import GPUCluster
from repro.hardware.multiwafer import MultiWaferSystem
from repro.hardware.topologies import Link
from repro.hardware.wafer import WaferScaleChip


class TestWaferScaleChip:
    def test_default_wafer_has_32_healthy_dies(self, wafer):
        assert wafer.num_dies == 32
        assert len(wafer.dies()) == 32

    def test_die_lookup(self, wafer):
        die = wafer.die(5)
        assert die.die_id == 5
        assert die.hbm_capacity == 72 * GB
        with pytest.raises(KeyError):
            wafer.die(99)

    def test_aggregates(self, wafer):
        assert wafer.aggregate_peak_flops() == pytest.approx(32 * 1800e12)
        assert wafer.aggregate_hbm_capacity([0, 1]) == pytest.approx(2 * 72 * GB)

    def test_link_transfer_time(self, wafer):
        link = wafer.topology.link(0, 1)
        time = wafer.link_transfer_time(link, 1 * TB)
        assert time == pytest.approx(1.0 + 200e-9)

    def test_path_transfer_time_pipelines_serialization(self, wafer):
        path = wafer.topology.xy_route(0, 3)
        time = wafer.path_transfer_time(path, 1 * TB)
        assert time == pytest.approx(1.0 + 3 * 200e-9)

    def test_describe_keys(self, wafer):
        summary = wafer.describe()
        assert summary["dies"] == 32.0
        assert summary["healthy_dies"] == 32.0

    def test_contiguous_groups(self, wafer):
        groups = wafer.contiguous_groups(8)
        assert len(groups) == 4

    def test_core_faults_derate_compute(self):
        faults = FaultModel(core_faults={0: 0.5})
        chip = WaferScaleChip(fault_model=faults)
        assert chip.die(0).peak_flops == pytest.approx(0.5 * 1800e12)
        assert chip.die(1).peak_flops == pytest.approx(1800e12)

    def test_dead_die_reduces_count(self):
        faults = FaultModel(dead_dies={3})
        chip = WaferScaleChip(fault_model=faults)
        assert chip.num_dies == 31
        assert 3 not in chip.healthy_dies()

    def test_failed_link_has_no_bandwidth(self):
        faults = FaultModel(failed_links={(0, 1), (1, 0)})
        chip = WaferScaleChip(fault_model=faults)
        assert not chip.topology.has_link(0, 1)
        with pytest.raises(ValueError):
            chip.link_transfer_time(Link(0, 1), 100)


class TestFaultModel:
    def test_no_faults_by_default(self):
        assert not FaultModel().has_faults

    def test_sample_link_faults_is_symmetric_and_sized(self):
        model = FaultModel.sample_link_faults(4, 8, 0.25, seed=1)
        undirected = {tuple(sorted(pair)) for pair in model.failed_links}
        assert len(undirected) == round(0.25 * 52)
        for src, dst in model.failed_links:
            assert (dst, src) in model.failed_links

    def test_sample_link_faults_reproducible(self):
        a = FaultModel.sample_link_faults(4, 8, 0.3, seed=5)
        b = FaultModel.sample_link_faults(4, 8, 0.3, seed=5)
        assert a.failed_links == b.failed_links

    def test_sample_core_faults_mean_close_to_rate(self):
        model = FaultModel.sample_core_faults(32, 0.2, seed=0)
        mean = sum(model.core_faults.values()) / 32
        assert 0.1 < mean < 0.3

    def test_zero_rate_means_no_faults(self):
        assert not FaultModel.sample_core_faults(32, 0.0).has_faults
        assert not FaultModel.sample_link_faults(4, 8, 0.0).has_faults

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultModel.sample_link_faults(4, 8, 1.5)
        with pytest.raises(ValueError):
            FaultModel.sample_core_faults(32, -0.1)

    def test_merged_with_takes_union(self):
        a = FaultModel(core_faults={0: 0.1}, dead_dies={1})
        b = FaultModel(core_faults={0: 0.3}, failed_links={(2, 3)})
        merged = a.merged_with(b)
        assert merged.core_faults[0] == 0.3
        assert merged.dead_dies == {1}
        assert (2, 3) in merged.failed_links

    def test_classify_faults(self):
        model = FaultModel(
            failed_links={(0, 1), (1, 0)},
            core_faults={2: 0.5, 3: 0.0},
            dead_dies={4},
        )
        counts = classify_faults(model)
        assert counts[FaultType.LINK] == 1
        assert counts[FaultType.CORE] == 1
        assert counts[FaultType.DIE] == 1


class TestMultiWaferSystem:
    def test_total_resources(self):
        system = MultiWaferSystem(4)
        assert system.total_dies == 128
        assert system.total_peak_flops == pytest.approx(128 * 1800e12)

    def test_invalid_wafer_count(self):
        with pytest.raises(ValueError):
            MultiWaferSystem(0)

    def test_stage_to_wafer_mapping_even_split(self):
        system = MultiWaferSystem(2)
        assert system.wafer_of_stage(0, 4) == 0
        assert system.wafer_of_stage(1, 4) == 0
        assert system.wafer_of_stage(2, 4) == 1
        assert system.wafer_of_stage(3, 4) == 1

    def test_stage_boundary_crossing(self):
        system = MultiWaferSystem(2)
        assert not system.stage_boundary_crosses_wafer(0, 4)
        assert system.stage_boundary_crosses_wafer(1, 4)

    def test_inter_stage_transfer_uses_interwafer_link_when_crossing(self):
        system = MultiWaferSystem(2)
        crossing = system.inter_stage_transfer_time(1, 4, 1 * GB)
        local = system.inter_stage_transfer_time(0, 4, 1 * GB)
        assert crossing > 0
        assert local > 0
        assert crossing != pytest.approx(local)

    def test_dies_per_stage(self):
        system = MultiWaferSystem(2)
        assert system.dies_per_stage(4) == 16
        assert system.dies_per_stage(2) == 32

    def test_describe(self):
        summary = MultiWaferSystem(3).describe()
        assert summary["num_wafers"] == 3
        assert summary["total_dies"] == 96


class TestGPUCluster:
    def test_node_assignment(self):
        cluster = GPUCluster()
        assert cluster.node_of(0) == 0
        assert cluster.node_of(8) == 1
        assert cluster.same_node(0, 7)
        assert not cluster.same_node(7, 8)

    def test_intra_node_is_faster_than_inter_node(self):
        cluster = GPUCluster()
        intra = cluster.transfer_time(0, 1, 1 * GB)
        inter = cluster.transfer_time(0, 8, 1 * GB)
        assert intra < inter

    def test_allreduce_scales_with_group(self):
        cluster = GPUCluster()
        small = cluster.ring_allreduce_time(8, 1 * GB)
        large = cluster.ring_allreduce_time(32, 1 * GB)
        assert small < large

    def test_trivial_collectives_are_free(self):
        cluster = GPUCluster()
        assert cluster.ring_allreduce_time(1, 1 * GB) == 0.0
        assert cluster.allgather_time(1, 1 * GB) == 0.0

    def test_out_of_range_device(self):
        with pytest.raises(ValueError):
            GPUCluster().node_of(99)
