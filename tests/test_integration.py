"""End-to-end integration: profile -> partition -> schedule -> sim + runtime."""

import numpy as np
import pytest

from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.schedule import one_f_one_b_rr_schedule, validate_schedule
from repro.core.topology import make_cluster
from repro.data import make_classification_data, make_image_data, make_seq2seq_data
from repro.models import build_gnmt, build_mlp, build_vgg
from repro.nn import CrossEntropyLoss
from repro.optim import SGD, Adam
from repro.profiler import profile_model
from repro.runtime import PipelineTrainer, evaluate_accuracy
from repro.sim import simulate, simulate_partition
from repro.sim.executor import SimOptions
from tests.oracles.sgd_reference import SequentialTrainer


LOSS = CrossEntropyLoss()


class TestFullWorkflow:
    """The Figure 6 workflow on an executable model."""

    def test_profile_partition_schedule_simulate(self, rng):
        model = build_mlp(in_features=16, hidden=(32, 32, 32), num_classes=4, rng=rng)
        sample = rng.standard_normal((8, 16))
        profile = profile_model(model, sample, num_iterations=1, warmup=0)
        topo = make_cluster("t", 4, 1, 1e6, 1e6)
        plan = PipeDreamOptimizer(profile, topo).solve()
        assert sum(s.replicas for s in plan.stages) == 4
        schedule = one_f_one_b_rr_schedule(plan.stages, 12, noam=plan.noam)
        validate_schedule(schedule)
        sim = simulate(schedule, profile, topo)
        assert sim.total_time > 0
        assert sim.steady_state_throughput > 0

    def test_partition_then_train(self, rng):
        model = build_mlp(in_features=16, hidden=(32, 32, 32), num_classes=4, rng=rng)
        sample = rng.standard_normal((8, 16))
        profile = profile_model(model, sample, num_iterations=1, warmup=0)
        topo = make_cluster("t", 4, 1, 1e6, 1e6)
        plan = PipeDreamOptimizer(profile, topo).solve()
        trainer = PipelineTrainer(model, plan.stages, LOSS,
                                  lambda ps: SGD(ps, lr=0.1))
        X, y = make_classification_data(num_samples=96, seed=0)
        batches = [(X[i * 12 : (i + 1) * 12], y[i * 12 : (i + 1) * 12]) for i in range(8)]
        losses = [trainer.train_minibatches(batches) for _ in range(5)]
        assert losses[-1] < losses[0]
        trained = trainer.consolidated_model()
        acc = evaluate_accuracy(trained, X, y)
        assert acc > 0.5

    def test_predicted_vs_simulated_throughput_correlates(self, toy_profile):
        """Figure 15's shape: optimizer predictions track simulated reality."""
        topo = make_cluster("t", 4, 1, 5000.0, 5000.0)
        configs = [
            [Stage(0, 5, 4)],
            [Stage(0, 3, 3), Stage(3, 5, 1)],
            [Stage(0, 3, 2), Stage(3, 5, 2)],
            [Stage(0, 2, 1), Stage(2, 3, 1), Stage(3, 4, 1), Stage(4, 5, 1)],
            [Stage(0, 4, 3), Stage(4, 5, 1)],
        ]
        from repro.core.partition import evaluate_partition_on_topology

        predicted, simulated = [], []
        for stages in configs:
            predicted.append(
                1.0 / evaluate_partition_on_topology(toy_profile, stages, topo)
            )
            result = simulate_partition(toy_profile, topo, stages, num_minibatches=40)
            simulated.append(result.throughput)
        correlation = np.corrcoef(predicted, simulated)[0, 1]
        assert correlation > 0.9


class TestVGGPipeline:
    def test_vgg_trains_through_pipeline(self, rng):
        model = build_vgg(scale=0.25, image_size=32, num_classes=4,
                          fc_width=64, rng=rng)
        # Conv front replicated, FC tail isolated: a 3-1 configuration.
        fc6 = model.layer_names.index("fc6")
        stages = [Stage(0, fc6, 1), Stage(fc6, model.num_layers, 1)]
        trainer = PipelineTrainer(model, stages, LOSS, lambda ps: SGD(ps, lr=0.05))
        X, y = make_image_data(num_samples=32, image_size=32, num_classes=4,
                               noise=0.1, seed=0)
        batches = [(X[i * 8 : (i + 1) * 8], y[i * 8 : (i + 1) * 8]) for i in range(4)]
        losses = [trainer.train_minibatches(batches) for _ in range(6)]
        assert losses[-1] < losses[0]


class TestGNMTPipeline:
    def test_gnmt_straight_pipeline_learns_translation(self, rng):
        model = build_gnmt(num_lstm_layers=2, vocab_size=12, hidden_size=16, rng=rng)
        stages = [Stage(0, 2, 1), Stage(2, 4, 1)]
        trainer = PipelineTrainer(model, stages, LOSS, lambda ps: Adam(ps, lr=0.01))
        src, tgt = make_seq2seq_data(num_samples=64, seq_len=6, vocab_size=12, seed=0)
        batches = [(src[i * 16 : (i + 1) * 16], tgt[i * 16 : (i + 1) * 16]) for i in range(4)]
        losses = [trainer.train_minibatches(batches) for _ in range(8)]
        assert losses[-1] < 0.7 * losses[0]

    def test_gnmt_consolidated_accuracy(self, rng):
        model = build_gnmt(num_lstm_layers=2, vocab_size=8, hidden_size=16, rng=rng)
        stages = [Stage(0, 2, 1), Stage(2, 4, 1)]
        trainer = PipelineTrainer(model, stages, LOSS, lambda ps: Adam(ps, lr=0.02))
        src, tgt = make_seq2seq_data(num_samples=96, seq_len=5, vocab_size=8, seed=1)
        batches = [(src[i * 16 : (i + 1) * 16], tgt[i * 16 : (i + 1) * 16]) for i in range(6)]
        for _ in range(12):
            trainer.train_minibatches(batches)
        acc = evaluate_accuracy(trainer.consolidated_model(), src, tgt)
        assert acc > 0.6


class TestPredictionConsistency:
    """Figure 15 generalized: the optimizer's predicted throughput tracks
    the simulator across every full-size model."""

    @pytest.mark.parametrize("model", ["vgg16", "resnet50", "gnmt8", "awd-lm"])
    def test_predicted_vs_simulated_within_2x(self, model):
        from repro.core.partition import PipeDreamOptimizer
        from repro.core.topology import cluster_a
        from repro.profiler import analytic_profile
        from repro.sim import simulate_data_parallel, simulate_partition

        profile = analytic_profile(model)
        topology = cluster_a(1)
        plan = PipeDreamOptimizer(profile, topology).solve()
        predicted = plan.predicted_throughput
        if plan.is_data_parallel:
            sim = simulate_data_parallel(profile, topology, num_minibatches=8)
            simulated = sim.samples_per_second / profile.batch_size
        else:
            simulated = simulate_partition(
                profile, topology, plan.stages, num_minibatches=48
            ).throughput
        ratio = simulated / predicted
        assert 0.5 < ratio < 2.0, (model, predicted, simulated)
