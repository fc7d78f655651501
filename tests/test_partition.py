"""The §3.1 partitioning optimizer: optimality, structure, accounting."""

import math

import pytest

from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    communication_bytes_per_minibatch,
    data_parallel_bytes_per_minibatch,
    evaluate_partition_on_topology,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import cluster_a, make_cluster
from repro.profiler import analytic_profile
from repro.sim.strategies import simulate_partition
from tests.oracles.partition_brute_force import brute_force_partition


class TestStage:
    def test_validation(self):
        with pytest.raises(ValueError):
            Stage(2, 2, 1)
        with pytest.raises(ValueError):
            Stage(0, 1, 0)

    def test_num_layers(self):
        assert Stage(1, 4, 2).num_layers == 3


class TestOptimalityVsBruteForce:
    def test_toy_profile(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4).solve()
        _, best = brute_force_partition(toy_profile, flat4)
        assert result.slowest_stage_time == pytest.approx(best)

    def test_compute_dominated_balances_stages(self, flat4):
        # Zero communication: the best plan maximizes parallel compute.
        layers = [LayerProfile(f"l{i}", 1.0, 0, 0) for i in range(8)]
        profile = ModelProfile("flat", layers, batch_size=1)
        result = PipeDreamOptimizer(profile, flat4).solve()
        _, best = brute_force_partition(profile, flat4)
        assert result.slowest_stage_time == pytest.approx(best)
        # With zero comm bytes, ideal parallelism reaches total/4.
        assert result.slowest_stage_time == pytest.approx(8.0 / 4)

    def test_comm_dominated_prefers_fewer_boundaries(self):
        # Gigantic activations make any split terrible; tiny weights make
        # replication free: expect pure data parallelism.
        layers = [LayerProfile(f"l{i}", 1.0, 10**9, 1) for i in range(5)]
        profile = ModelProfile("fat-acts", layers, batch_size=1)
        topo = make_cluster("t", 4, 1, 100.0, 100.0)
        result = PipeDreamOptimizer(profile, topo).solve()
        assert result.is_data_parallel

    def test_heavy_weights_prefer_straight_pipeline(self):
        # Huge weights make replication terrible; tiny activations make
        # pipelining free: expect a straight pipeline (AWD-LM's case).
        layers = [LayerProfile(f"l{i}", 1.0, 1, 10**9) for i in range(4)]
        profile = ModelProfile("fat-weights", layers, batch_size=1)
        topo = make_cluster("t", 4, 1, 100.0, 100.0)
        result = PipeDreamOptimizer(profile, topo).solve()
        assert result.config_string == "straight"

    def test_random_profiles_match_brute_force(self, flat4):
        import numpy as np

        rng = np.random.default_rng(42)
        for trial in range(8):
            n = int(rng.integers(2, 6))
            layers = [
                LayerProfile(
                    f"l{i}",
                    float(rng.uniform(0.5, 4.0)),
                    int(rng.integers(1, 2000)),
                    int(rng.integers(1, 2000)),
                )
                for i in range(n)
            ]
            profile = ModelProfile(f"rand{trial}", layers, batch_size=1)
            result = PipeDreamOptimizer(profile, flat4).solve()
            _, best = brute_force_partition(profile, flat4)
            assert result.slowest_stage_time == pytest.approx(best), f"trial {trial}"


class TestPartitionStructure:
    def test_stages_cover_model_contiguously(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4).solve()
        assert result.stages[0].start == 0
        assert result.stages[-1].stop == len(toy_profile)
        for a, b in zip(result.stages, result.stages[1:]):
            assert a.stop == b.start

    def test_workers_fully_allocated(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4).solve()
        assert sum(s.replicas for s in result.stages) == 4

    def test_two_level_topology(self, toy_profile, two_level):
        result = PipeDreamOptimizer(toy_profile, two_level).solve()
        assert sum(s.replicas for s in result.stages) == 4
        assert result.stages[-1].stop == len(toy_profile)

    def test_subset_worker_count(self, toy_profile, two_level):
        result = PipeDreamOptimizer(toy_profile, two_level).solve(num_workers=2)
        assert result.num_workers == 2
        assert sum(s.replicas for s in result.stages) == 2

    def test_straight_only_mode(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4, allow_replication=False).solve()
        assert all(s.replicas == 1 for s in result.stages)

    def test_single_worker_is_single_stage(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4).solve(num_workers=1)
        assert len(result.stages) == 1
        assert result.slowest_stage_time == pytest.approx(toy_profile.total_compute_time)

    def test_solver_is_fast(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4).solve()
        assert result.solve_seconds < 8.0  # the paper's bound (§5.5)


class TestPartitionResultProperties:
    def test_config_string_dp(self, flat4):
        layers = [LayerProfile("l", 1.0, 10**9, 1)]
        profile = ModelProfile("m", layers, batch_size=1)
        result = PipeDreamOptimizer(profile, flat4).solve()
        assert result.config_string == "4"
        assert result.is_data_parallel

    def test_noam_straight(self):
        stages = [Stage(i, i + 1, 1) for i in range(4)]
        from repro.core.schedule import warmup_count

        assert warmup_count(stages, 0) == 4

    def test_noam_replicated_input(self):
        from repro.core.schedule import warmup_count

        assert warmup_count([Stage(0, 2, 3), Stage(2, 3, 1)], 0) == 2

    def test_predicted_throughput(self, toy_profile, flat4):
        result = PipeDreamOptimizer(toy_profile, flat4).solve()
        assert result.predicted_throughput == pytest.approx(1.0 / result.slowest_stage_time)
        assert result.predicted_epoch_time(10) == pytest.approx(10 * result.slowest_stage_time)


class TestMemoryLimit:
    def test_tight_limit_changes_plan(self, flat4):
        # One enormous-weight layer cannot share a stage under a tight cap.
        layers = [
            LayerProfile("small", 1.0, 10, 10),
            LayerProfile("big", 1.0, 10, 10_000),
            LayerProfile("small2", 1.0, 10, 10),
        ]
        profile = ModelProfile("m", layers, batch_size=1)
        unconstrained = PipeDreamOptimizer(profile, flat4).solve()
        constrained = PipeDreamOptimizer(
            profile, flat4, memory_limit_bytes=4 * 11_000
        ).solve()
        assert constrained.slowest_stage_time >= unconstrained.slowest_stage_time

    def test_infeasible_limit_raises(self, flat4, toy_profile):
        with pytest.raises(RuntimeError):
            PipeDreamOptimizer(toy_profile, flat4, memory_limit_bytes=1.0).solve()


class TestCostAccounting:
    def test_evaluate_partition_single_stage(self, toy_profile):
        cost = evaluate_partition_on_topology(
            toy_profile, [Stage(0, 5, 1)], make_cluster("t", 2, 1, 100.0, 100.0))
        assert cost == pytest.approx(toy_profile.total_compute_time, rel=1e-12)

    def test_evaluate_partition_includes_boundary(self, toy_profile):
        stages = [Stage(0, 3, 1), Stage(3, 5, 1)]
        cost = evaluate_partition_on_topology(
            toy_profile, stages, make_cluster("t", 2, 1, 1.0, 1.0))
        # Boundary = 2 * a_2 / B = 1200 dominates.
        assert cost == pytest.approx(1200.0, rel=1e-12)

    def test_evaluate_partition_checks_coverage(self, toy_profile):
        flat = make_cluster("t", 2, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            evaluate_partition_on_topology(toy_profile, [Stage(0, 3, 1)], flat)
        with pytest.raises(ValueError):
            evaluate_partition_on_topology(
                toy_profile, [Stage(0, 3, 1), Stage(4, 5, 1)], flat
            )

    def test_communication_volume_dp_vs_pipeline(self, toy_profile):
        dp = data_parallel_bytes_per_minibatch(toy_profile, 4)
        pipeline = communication_bytes_per_minibatch(
            toy_profile, [Stage(0, 3, 3), Stage(3, 5, 1)]
        )
        # DP synchronizes all weights once per round of 4 minibatches; the
        # pipeline syncs only the conv weights over its 3 replicas and ships
        # one boundary activation per minibatch.
        assert dp == pytest.approx(2 * 3 * 9600 / 4)
        assert pipeline == pytest.approx(2 * 2 * 600 / 3 + 2 * 600)
        assert pipeline < dp

    def test_dp_volume_single_worker_zero(self, toy_profile):
        assert data_parallel_bytes_per_minibatch(toy_profile, 1) == 0.0


class TestPlansOnMissingWorkers:
    """A plan that needs more workers than the topology has is an error
    on both pricing stacks, never a number for workers that do not exist
    (vgg16 on Cluster-A with one server: 4 workers)."""

    VGG = analytic_profile("vgg16")
    N = len(VGG)
    PLANS = {
        "dp8": ([Stage(0, N, 8)], 8),
        "pipeline6": ([Stage(0, 9, 2), Stage(9, 15, 2), Stage(15, N, 2)], 6),
        "tp5": ([Stage(0, 9, 2, tp_degree=2), Stage(9, N, 1)], 5),
    }

    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("stack", ["evaluator", "simulator"])
    def test_rejected_naming_both_counts(self, stack, plan):
        stages, workers = self.PLANS[plan]
        topology = cluster_a(1)
        price = {
            "evaluator": lambda: evaluate_partition_on_topology(
                self.VGG, stages, topology),
            "simulator": lambda: simulate_partition(
                self.VGG, topology, stages, num_minibatches=8),
        }[stack]
        with pytest.raises(ValueError, match=f"{workers} workers.* has 4"):
            price()
