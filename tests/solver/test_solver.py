"""Tests for the search space, DP, genetic refinement, exhaustive baseline, and DLWS."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.framework import scheme_max_tp
from repro.hardware.config import default_wafer_config
from repro.parallelism.baselines import BaselineScheme, candidate_specs
from repro.parallelism.spec import ParallelSpec
from repro.solver.dlws import DualLevelWaferSolver
from repro.solver.dp import optimize_segments
from repro.solver.exhaustive import ExhaustiveSolver
from repro.solver.genetic import GeneticConfig, GeneticRefiner
from repro.solver.search_space import pick_best, prune_specs
from repro.workloads.models import get_model
from repro.workloads.transformer import representative_layer_graph


@pytest.fixture(scope="module")
def wafer_config():
    return default_wafer_config()


@pytest.fixture(scope="module")
def layer_graph(gpt3_6b):
    return representative_layer_graph(gpt3_6b)


@pytest.fixture(scope="module")
def candidates():
    return [
        ParallelSpec(dp=32),
        ParallelSpec(dp=4, tatp=8),
        ParallelSpec(dp=2, tp=2, tatp=8),
        ParallelSpec(tatp=32),
    ]


class TestCandidateSpace:
    def test_candidates_match_scheme(self, gpt3_6b):
        specs = candidate_specs(BaselineScheme.TEMP, 32,
                                max_tp=min(32, gpt3_6b.num_heads))
        assert specs
        assert all(spec.total_degree == 32 for spec in specs)

    def test_tp_capped_by_heads(self):
        few_heads = replace(get_model("gpt3-6.7b"), num_heads=8)
        specs = candidate_specs(
            BaselineScheme.TEMP, 32,
            max_tp=scheme_max_tp(BaselineScheme.TEMP, few_heads))
        assert max(spec.tp for spec in specs) == few_heads.num_heads

    def test_pruning_drops_hopeless_configs(self, llama70b, wafer_config):
        specs = [ParallelSpec(dp=32), ParallelSpec(tatp=32)]
        survivors = prune_specs(specs, llama70b, wafer_config, memory_margin=1.0)
        assert ParallelSpec(tatp=32) in survivors
        assert ParallelSpec(dp=32) not in survivors

    def test_pruning_keeps_checkpointable_configs(self, llama70b, wafer_config):
        # FSDP-32 only fits with activation checkpointing; pruning must keep it.
        specs = [ParallelSpec(fsdp=32)]
        survivors = prune_specs(specs, llama70b, wafer_config, memory_margin=1.0)
        assert survivors == specs

    def test_invalid_margin(self, gpt3_6b, wafer_config):
        with pytest.raises(ValueError):
            prune_specs([], gpt3_6b, wafer_config, memory_margin=0)


class TestPickBest:
    @staticmethod
    def _pick(outcomes):
        """``pick_best`` over stub reports: ``(label, oom, step, pressure)``."""
        specs = [ParallelSpec(dp=dp) for dp in range(1, len(outcomes) + 1)]
        reports = {spec: SimpleNamespace(label=label, oom=oom, step_time=step,
                                         memory_pressure=pressure)
                   for spec, (label, oom, step, pressure)
                   in zip(specs, outcomes)}
        spec, report, oom, by_label = pick_best(specs, reports.__getitem__)
        assert set(by_label) == {spec.label() for spec in specs}
        return report.label, oom

    def test_fastest_fitting_report_wins_and_earlier_wins_a_tie(self):
        assert self._pick([("slow", False, 2.0, 0.5),
                           ("first", False, 1.0, 0.9),
                           ("tie", False, 1.0, 0.1),
                           ("oom", True, 0.5, 1.5)]) == ("first", False)

    def test_all_oom_picks_lowest_memory_pressure(self):
        assert self._pick([("fast", True, 1.0, 3.0),
                           ("first", True, 5.0, 1.2),
                           ("tie", True, 4.0, 1.2)]) == ("first", True)

    def test_empty_candidate_list(self):
        assert pick_best([], lambda spec: None) == (None, None, True, {})


class TestDynamicProgramming:
    def test_assignment_covers_every_node(self, layer_graph, candidates, wafer_config):
        result = optimize_segments(layer_graph, candidates, wafer_config)
        assert set(result.assignment) == {node.node_id for node in layer_graph.nodes()}
        assert result.total_cost > 0
        assert result.evaluations > 0

    def test_dp_not_worse_than_any_uniform_assignment(
            self, layer_graph, candidates, wafer_config):
        from repro.costmodel.analytical import graph_cost
        result = optimize_segments(layer_graph, candidates, wafer_config)
        uniform_costs = []
        for spec in candidates:
            assignment = {node.node_id: spec for node in layer_graph.nodes()}
            uniform_costs.append(graph_cost(layer_graph, assignment, wafer_config))
        assert result.total_cost <= min(uniform_costs) * 1.0001

    def test_memory_limit_respected_when_possible(
            self, layer_graph, candidates, wafer_config):
        unconstrained = optimize_segments(layer_graph, candidates, wafer_config)
        constrained = optimize_segments(
            layer_graph, candidates, wafer_config,
            memory_limit=wafer_config.die.hbm.capacity)
        assert constrained.total_cost >= 0
        assert set(constrained.assignment) == set(unconstrained.assignment)

    def test_empty_candidates_rejected(self, layer_graph, wafer_config):
        with pytest.raises(ValueError):
            optimize_segments(layer_graph, [], wafer_config)

    def test_oom_fallback_cost_includes_resharding(
            self, layer_graph, candidates, wafer_config):
        from repro.costmodel.analytical import (
            inter_operator_cost, intra_operator_cost)
        # A zero-byte budget forces the fallback path on every segment. The
        # reported cost must equal the full chain cost — intra plus
        # resharding — of the assignment actually returned (the seed
        # implementation silently dropped the resharding terms here).
        result = optimize_segments(
            layer_graph, candidates, wafer_config, memory_limit=0.0)
        want = 0.0
        for chain in layer_graph.partition_at_residual_boundaries():
            for node_id in chain:
                want += intra_operator_cost(
                    layer_graph.node(node_id).operator,
                    result.assignment[node_id], wafer_config).total
            for prev_id, node_id in zip(chain, chain[1:]):
                want += inter_operator_cost(
                    layer_graph.node(prev_id).operator,
                    result.assignment[prev_id],
                    result.assignment[node_id], wafer_config)
        assert result.total_cost == pytest.approx(want, rel=1e-9)


class TestGeneticRefiner:
    def test_refinement_not_worse_than_seed(self, layer_graph, candidates, wafer_config):
        from repro.costmodel.analytical import graph_cost
        dp_result = optimize_segments(layer_graph, candidates, wafer_config)
        refiner = GeneticRefiner(
            layer_graph, candidates, wafer_config,
            genetic_config=GeneticConfig(population_size=8, generations=5, seed=1))
        ga_result = refiner.refine(initial_assignment=dp_result.assignment)
        # Elitism guarantees the GA never regresses below its DP seed when both
        # are measured with the same whole-graph cost (Eq. 4).
        seed_cost = graph_cost(layer_graph, dp_result.assignment, wafer_config)
        assert ga_result.cost <= seed_cost * 1.0001
        assert len(ga_result.history) == 6

    def test_deterministic_for_fixed_seed(self, layer_graph, candidates, wafer_config):
        config = GeneticConfig(population_size=6, generations=3, seed=7)
        results = [
            GeneticRefiner(layer_graph, candidates, wafer_config,
                           genetic_config=config).refine().cost
            for _ in range(2)
        ]
        assert results[0] == pytest.approx(results[1])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GeneticConfig(population_size=1)
        with pytest.raises(ValueError):
            GeneticConfig(mutation_rate=2.0)
        with pytest.raises(ValueError):
            GeneticConfig(elite_count=50, population_size=10)

    def test_empty_candidates_rejected(self, layer_graph, wafer_config):
        with pytest.raises(ValueError):
            GeneticRefiner(layer_graph, [], wafer_config)


class TestExhaustiveSolver:
    def test_finds_best_uniform_assignment_on_tiny_problem(self, wafer_config, gpt3_6b):
        tiny = get_model("gpt3-6.7b").with_overrides(num_layers=1, batch_size=8,
                                                     seq_length=512)
        graph = representative_layer_graph(tiny)
        candidates = [ParallelSpec(dp=8), ParallelSpec(tatp=8)]
        solver = ExhaustiveSolver(wafer_config, max_evaluations=5000)
        result = solver.search(graph, candidates)
        assert result.evaluations > 0
        assert result.cost > 0

    def test_truncation_flag(self, layer_graph, candidates, wafer_config):
        solver = ExhaustiveSolver(wafer_config, max_evaluations=10)
        result = solver.search(layer_graph, candidates)
        assert result.truncated
        assert result.evaluations == 10

    def test_total_combinations(self):
        assert ExhaustiveSolver.total_combinations(12, 4) == 4 ** 12
        with pytest.raises(ValueError):
            ExhaustiveSolver.total_combinations(-1, 2)


class TestDualLevelWaferSolver:
    def test_solver_returns_feasible_best(self, gpt3_6b):
        solver = DualLevelWaferSolver(num_finalists=4)
        result = solver.solve(gpt3_6b)
        assert result.best_spec.total_degree == 32
        assert not result.best_report.oom
        assert result.candidates_considered > 0
        assert result.search_seconds > 0

    def test_solver_prefers_tatp_for_large_models(self, llama70b):
        solver = DualLevelWaferSolver(num_finalists=6)
        result = solver.solve(llama70b)
        assert result.best_spec.tatp > 1

    def test_invalid_finalist_count(self):
        with pytest.raises(ValueError):
            DualLevelWaferSolver(num_finalists=0)

    def test_solve_never_reanalyzes_a_plan(self, gpt3_6b, monkeypatch):
        # Pruning, finalist ranking, and finalist simulation all need the
        # same execution plans; the shared plan cache must derive each
        # distinct (model, spec, devices, checkpointing) plan exactly once.
        import repro.costmodel.tables as tables_module
        real_analyze = tables_module.analyze_model
        computed = []

        def counting_analyze(model, spec, num_devices=None,
                             activation_checkpointing=False, **kwargs):
            computed.append(
                (model.name, spec, num_devices, activation_checkpointing))
            return real_analyze(
                model, spec, num_devices=num_devices,
                activation_checkpointing=activation_checkpointing, **kwargs)

        monkeypatch.setattr(tables_module, "analyze_model", counting_analyze)
        solver = DualLevelWaferSolver(num_finalists=4)
        result = solver.solve(gpt3_6b)
        assert len(computed) == len(set(computed)), \
            "analyze_model ran twice for the same (model, spec) key"
        # Finalist ranking and simulation re-read plans the pruning already
        # derived, so the cache must have served repeat lookups.
        assert result.plan_cache_hits > 0
        assert result.plan_cache_misses == len(computed)
