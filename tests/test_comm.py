"""Communication substrate: channels, ring all_reduce, runtime accounting."""

import numpy as np
import pytest

from repro.comm import Channel, Network, ring_allreduce
from repro.core.partition import (
    Stage,
    communication_bytes_per_minibatch,
    data_parallel_bytes_per_minibatch,
)
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import PipelineTrainer, ThreadedPipelineTrainer

#: Both drivers of the one op interpreter account traffic identically.
TRAINERS = (PipelineTrainer, ThreadedPipelineTrainer)


class TestChannel:
    def test_fifo_order(self):
        channel = Channel(0, 1)
        channel.send(("a",), np.zeros(1))
        channel.send(("b",), np.ones(1))
        assert channel.recv()[0] == 0.0
        assert channel.recv()[0] == 1.0

    def test_tagged_out_of_order_recv(self):
        channel = Channel(0, 1)
        channel.send(("a",), np.zeros(1))
        channel.send(("b",), np.ones(1))
        assert channel.recv(("b",))[0] == 1.0
        assert channel.recv(("a",))[0] == 0.0

    def test_empty_raises(self):
        with pytest.raises(LookupError):
            Channel(0, 1).recv()

    def test_missing_tag_raises(self):
        channel = Channel(0, 1)
        channel.send(("a",), np.zeros(1))
        with pytest.raises(LookupError):
            channel.recv(("b",))

    def test_byte_accounting(self):
        channel = Channel(0, 1)
        channel.send(("t",), np.zeros((2, 3)))  # float64: 48 bytes
        channel.send(("t",), {"w": np.zeros(4), "b": np.zeros(1)})  # 40 bytes
        assert channel.bytes_sent == 48 + 40
        assert channel.messages_sent == 2

    def test_none_payload_zero_bytes(self):
        channel = Channel(0, 1)
        channel.send(("t",), None)
        assert channel.bytes_sent == 0


class TestNetwork:
    def test_channels_created_lazily(self):
        network = Network()
        network.send(0, 1, ("x",), np.zeros(2))
        assert network.total_messages == 1
        assert network.bytes_by_channel() == {(0, 1): 16}

    def test_in_flight_leak_detection(self):
        network = Network()
        network.send(0, 1, ("x",), np.zeros(2))
        assert network.in_flight() == 1
        network.recv(0, 1)
        assert network.in_flight() == 0


class TestRingAllReduce:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_average_matches_mean(self, m, rng):
        contributions = [
            {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
            for _ in range(m)
        ]
        results = ring_allreduce(contributions, average=True)
        expect = {
            name: np.mean([c[name] for c in contributions], axis=0)
            for name in ("w", "b")
        }
        for result in results:
            for name in expect:
                np.testing.assert_allclose(result[name], expect[name], atol=1e-12)

    def test_sum_mode(self, rng):
        contributions = [{"w": np.ones(4)} for _ in range(3)]
        results = ring_allreduce(contributions, average=False)
        np.testing.assert_allclose(results[0]["w"], np.full(4, 3.0))

    def test_bytes_match_closed_form(self, rng):
        for m in (2, 3, 5):
            contributions = [{"w": rng.standard_normal(17)} for _ in range(m)]
            network = Network()
            ring_allreduce(contributions, network)
            # Each of the 2 (m-1) steps moves the whole float64 vector.
            assert network.total_bytes == 2 * (m - 1) * 17 * 8
            assert network.in_flight() == 0

    def test_volume_is_2_m_minus_1_over_m(self):
        """Each participant ships ~2(m-1)/m of the data (§3.1)."""
        n, m = 1000, 4
        network = Network()
        ring_allreduce([{"w": np.zeros(n)} for _ in range(m)], network)
        per_worker = network.total_bytes / m
        expected = 2 * (m - 1) / m * n * 8
        assert per_worker == pytest.approx(expected, rel=0.01)

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([{"w": np.zeros(2)}, {"v": np.zeros(2)}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([])


class TestProfilePayloadSizing:
    """All_reduce payloads sized from a profile honor its precision."""

    def test_fp16_profile_moves_half_the_bytes(self):
        from repro.profiler import analytic_profile

        fp32 = analytic_profile("vgg16")
        fp16 = fp32.with_precision(2)
        for m in (2, 4, 8):
            full = data_parallel_bytes_per_minibatch(fp32, m)
            half = data_parallel_bytes_per_minibatch(fp16, m)
            assert half == full / 2

    def test_profile_sizing_matches_element_count(self):
        from repro.core.profile import LayerProfile, ModelProfile

        profile = ModelProfile(
            "toy",
            [LayerProfile("l0", 1.0, 0, 4000)],
            batch_size=1,
            bytes_per_element=4,
        )
        # 1000 fp32 elements over a 3-ring: 2 (m-1) * 1000 * 4 bytes a
        # round of 3 minibatches.
        assert 3 * data_parallel_bytes_per_minibatch(profile, 3) == \
            pytest.approx(2 * 2 * 1000 * 4, rel=1e-15)

    def test_measured_profile_reads_dtype_width(self):
        """The measured profiler derives bytes_per_element from the
        parameters' dtype (float64 engine -> 8), not a hardcoded value."""
        from repro.profiler import profile_model

        model = build_mlp(rng=np.random.default_rng(4))
        X, _ = make_classification_data(num_samples=8, seed=4)
        profile = profile_model(model, X, 1, 0)
        widths = {
            p.data.dtype.itemsize
            for i in range(model.num_layers)
            for p in model.layer(i).parameters()
        }
        assert profile.bytes_per_element == max(widths)
        assert profile.bytes_per_element == 8

    def test_fp16_halves_simulated_sync_cost(self):
        """End to end: with_precision(2) halves the simulator's all_reduce
        busy time for a data-parallel run (Figure 12's premise)."""
        from repro.core.schedule import data_parallel_schedule
        from repro.core.topology import cluster_a
        from repro.profiler import analytic_profile
        from repro.sim.executor import SimOptions, simulate

        fp32 = analytic_profile("gnmt8")
        fp16 = fp32.with_precision(2)
        topo = cluster_a(1)
        options = SimOptions(sync_mode="bsp")

        def sync_cost(profile):
            sched = data_parallel_schedule(4, 8, num_layers=len(profile))
            sim = simulate(sched, profile, topo, options)
            return sum(sim.sync_busy.values())

        full = sync_cost(fp32)
        half = sync_cost(fp16)
        assert full > 0
        assert half == pytest.approx(full / 2, rel=1e-12)


class TestRuntimeAccounting:
    """The trainer's measured traffic matches the Figure 17 model."""

    def setup_method(self):
        X, y = make_classification_data(num_samples=96, seed=9)
        self.batches = [(X[i * 12 : (i + 1) * 12], y[i * 12 : (i + 1) * 12])
                        for i in range(8)]

    def _train(self, stages, trainer_cls=PipelineTrainer):
        model = build_mlp(rng=np.random.default_rng(40))
        trainer = trainer_cls(model, stages, CrossEntropyLoss(),
                              lambda ps: SGD(ps, lr=0.05))
        trainer.train_minibatches(self.batches)
        return trainer

    def test_straight_pipeline_measured_bytes(self):
        """Measured boundary traffic == 2 a_s per minibatch per boundary."""
        stages = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)]
        for trainer_cls in TRAINERS:
            trainer = self._train(stages, trainer_cls)
            # fc1/fc2 output 32 float64 features x 12 samples = 3072 bytes;
            # one activation + one gradient per boundary per minibatch.
            per_minibatch = 2 * 3072 + 2 * 3072
            assert trainer.network.total_bytes == per_minibatch * 8, trainer_cls
            assert trainer.network.in_flight() == 0

    def test_replicated_stage_includes_allreduce(self):
        stages = [Stage(0, 2, 2), Stage(2, 3, 1)]
        for trainer_cls in TRAINERS:
            trainer = self._train(stages, trainer_cls)
            boundary = 2 * 3072 * 8  # one boundary, 8 minibatches
            stage0_params = sum(
                p.size for p in trainer.replicas[0][0].module.parameters()
            )
            # A 2-member ring moves 2 (m-1) = 2 copies; 4 rounds.
            allreduce = 2 * stage0_params * 8 * 4
            assert trainer.network.total_bytes == boundary + allreduce, (
                trainer_cls)
            assert trainer.network.in_flight() == 0

    def test_measured_tracks_analytic_model(self):
        """Runtime bytes scale like communication_bytes_per_minibatch."""
        from repro.profiler import profile_model

        model = build_mlp(rng=np.random.default_rng(40))
        profile = profile_model(model, self.batches[0][0], 1, 0)
        stages = [Stage(0, 2, 2), Stage(2, 3, 1)]
        analytic = communication_bytes_per_minibatch(profile, stages) * 8
        trainer = self._train(stages)
        measured = trainer.network.total_bytes
        assert measured == pytest.approx(analytic, rel=0.05)
