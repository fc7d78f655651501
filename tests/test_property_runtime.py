"""Property-based tests over the training runtime itself."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import Stage
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import CheckpointManager, PipelineTrainer
from tests.oracles.sgd_reference import SequentialTrainer

LOSS = CrossEntropyLoss()


def make_task(seed: int, num_batches: int = 6, batch: int = 8):
    X, y = make_classification_data(num_samples=num_batches * batch,
                                    num_features=8, num_classes=3, seed=seed)
    return [(X[i * batch : (i + 1) * batch], y[i * batch : (i + 1) * batch])
            for i in range(num_batches)]


def make_model(depth: int, seed: int):
    return build_mlp(in_features=8, hidden=tuple([12] * depth), num_classes=3,
                     rng=np.random.default_rng(seed))


def straight_partitions(num_layers: int, num_stages: int):
    """Evenly-sized contiguous straight partition."""
    bounds = [round(i * num_layers / num_stages) for i in range(num_stages + 1)]
    bounds = sorted(set(bounds))
    return [Stage(a, b, 1) for a, b in zip(bounds[:-1], bounds[1:])]


class TestPipelineProperties:
    @settings(max_examples=12, deadline=None)
    @given(depth=st.integers(1, 3), seed=st.integers(0, 2**10))
    def test_single_stage_always_equals_sgd(self, depth, seed):
        task = make_task(seed)
        m_pipe, m_ref = make_model(depth, seed), make_model(depth, seed)
        n = m_pipe.num_layers
        pipe = PipelineTrainer(m_pipe, [Stage(0, n, 1)], LOSS,
                               lambda ps: SGD(ps, lr=0.05))
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.05))
        pipe.train_minibatches(task)
        ref.train_epoch(task)
        pipe.consolidated_model()
        for (name, pa), (_, pb) in zip(m_pipe.named_parameters(),
                                       m_ref.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12,
                                       err_msg=name)

    @settings(max_examples=12, deadline=None)
    @given(
        depth=st.integers(2, 4),
        num_stages=st.integers(2, 4),
        seed=st.integers(0, 2**10),
    )
    def test_staleness_formula_any_straight_partition(self, depth, num_stages,
                                                      seed):
        """v_s(b) = max(0, b - (n-1-s)) for every straight partition."""
        task = make_task(seed)
        model = make_model(depth, seed)
        stages = straight_partitions(model.num_layers, num_stages)
        n = len(stages)
        pipe = PipelineTrainer(model, stages, LOSS, lambda ps: SGD(ps, lr=0.02))
        pipe.train_minibatches(task)
        for b in range(len(task)):
            for s in range(n):
                expected = max(0, b - (n - 1 - s))
                assert pipe.stats.forward_versions[(s, b)] == expected

    @settings(max_examples=10, deadline=None)
    @given(
        replicas=st.integers(1, 3),
        seed=st.integers(0, 2**10),
    )
    def test_replicated_front_trains_and_stays_consistent(self, replicas, seed):
        task = make_task(seed, num_batches=6)
        model = make_model(2, seed)
        stages = [Stage(0, 2, replicas), Stage(2, 3, 1)]
        pipe = PipelineTrainer(model, stages, LOSS, lambda ps: SGD(ps, lr=0.05))
        first = pipe.train_minibatches(task)
        for _ in range(3):
            last = pipe.train_minibatches(task)
        assert np.isfinite(last)
        group = pipe.replicas[0]
        for other in group[1:]:
            for (name, pa), (_, pb) in zip(
                group[0].module.named_parameters(),
                other.module.named_parameters(),
            ):
                np.testing.assert_allclose(pa.data, pb.data, atol=1e-9,
                                           err_msg=name)

    @settings(max_examples=10, deadline=None)
    @given(
        crash_epoch=st.integers(0, 4),
        cadence=st.integers(1, 3),
        num_stages=st.integers(1, 3),
        seed=st.integers(0, 2**10),
    )
    def test_crash_resume_loses_no_committed_round(
            self, tmp_path_factory, crash_epoch, cadence, num_stages, seed):
        """For any crash epoch and checkpoint cadence, a crash/resume
        cycle never loses or double-applies a committed update round:
        replaying from the last complete checkpoint lands bitwise on the
        uninterrupted run, the version counters account exactly for the
        rounds committed since the restore, and no update is skipped."""
        total_epochs = 5
        task = make_task(seed, num_batches=4)
        model = make_model(2, seed)
        stages = straight_partitions(model.num_layers, num_stages)
        manager = CheckpointManager(
            str(tmp_path_factory.mktemp("ckpt")))

        oracle = PipelineTrainer(make_model(2, seed), stages, LOSS,
                                 lambda ps: SGD(ps, lr=0.02))
        for _ in range(total_epochs):
            oracle.train_minibatches(task)
        expected = {name: p.data.copy() for name, p in
                    oracle.consolidated_model().named_parameters()}

        # The doomed run: checkpoint on the cadence, crash after
        # ``crash_epoch`` epochs (work past the last boundary is lost).
        doomed = PipelineTrainer(model, stages, LOSS,
                                 lambda ps: SGD(ps, lr=0.02))
        for epoch in range(crash_epoch):
            doomed.train_minibatches(task)
            if (epoch + 1) % cadence == 0:
                doomed.save_checkpoint(manager, epoch=epoch)

        resumed = PipelineTrainer(make_model(2, seed + 1), stages, LOSS,
                                  lambda ps: SGD(ps, lr=0.02))
        restored = resumed.restore_checkpoint(manager)
        if restored is None:
            # No complete checkpoint: the §4 restart rule replays from
            # initialization — rebuild from the oracle's init instead.
            resumed = PipelineTrainer(make_model(2, seed), stages, LOSS,
                                      lambda ps: SGD(ps, lr=0.02))
            replay_epochs = total_epochs
        else:
            assert restored == ((crash_epoch // cadence) * cadence) - 1
            replay_epochs = total_epochs - (restored + 1)
        assert resumed.stats.skipped_updates == {}
        for _ in range(replay_epochs):
            resumed.train_minibatches(task)

        # Version counters == rounds committed since the restore: every
        # committed round is applied exactly once.
        assert resumed.stage_versions() == (
            [replay_epochs * len(task)] * len(stages))
        assert resumed.stats.skipped_updates == {}
        for name, p in resumed.consolidated_model().named_parameters():
            np.testing.assert_array_equal(p.data, expected[name],
                                          err_msg=name)

    @settings(max_examples=10, deadline=None)
    @given(accumulation=st.integers(1, 4), seed=st.integers(0, 2**10))
    def test_version_count_matches_accumulation(self, accumulation, seed):
        """Updates committed = ceil(batches / accumulation) on one stage."""
        task = make_task(seed, num_batches=7)
        model = make_model(1, seed)
        pipe = PipelineTrainer(model, [Stage(0, model.num_layers, 1)], LOSS,
                               lambda ps: SGD(ps, lr=0.05),
                               gradient_accumulation=accumulation)
        pipe.train_minibatches(task)
        expected = -(-len(task) // accumulation)
        assert pipe.stage_versions() == [expected]
