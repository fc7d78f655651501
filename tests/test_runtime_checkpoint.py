"""§4 checkpointing: per-stage saves, restart rules, fault injection."""

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import CheckpointManager, PipelineTrainer

LOSS = CrossEntropyLoss()
STAGES = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)]


@pytest.fixture
def task():
    X, y = make_classification_data(num_samples=96, seed=3)
    return [(X[i * 12 : (i + 1) * 12], y[i * 12 : (i + 1) * 12]) for i in range(8)]


def fresh_model(seed=21):
    return build_mlp(rng=np.random.default_rng(seed))


def make_trainer(model, replicated=False):
    stages = [Stage(0, 2, 2), Stage(2, 3, 1)] if replicated else STAGES
    return PipelineTrainer(model, stages, LOSS, lambda ps: SGD(ps, lr=0.05))


class TestCheckpointManager:
    def test_save_and_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        state = {"0.weight": np.arange(6.0).reshape(2, 3), "0.bias": np.ones(2)}
        manager.save_stage(0, 0, 3, state)
        loaded = manager.load_stage(0, 0, 3)
        assert set(loaded) == set(state)
        for name in state:
            np.testing.assert_array_equal(loaded[name], state[name])

    def test_adversarial_names_roundtrip(self, tmp_path):
        """The escape is reversible: names built from '.', '_', '/' and
        the escape letters themselves survive save/load unchanged — and
        the historical collision pair maps to distinct entries."""
        names = [
            "conv__1.w",
            "conv.1__w",  # collided with the previous under '.' -> '__'
            "a_d_b",
            "a.d.b",
            "block/0/weight",
            "_leading",
            "trailing_",
            "___",
            "d_s.d_s",
            "plain",
        ]
        state = {
            name: np.full(3, float(i)) for i, name in enumerate(names)
        }
        manager = CheckpointManager(str(tmp_path))
        manager.save_stage(0, 0, 0, state)
        loaded = manager.load_stage(0, 0, 0)
        assert set(loaded) == set(state)
        for name in names:
            np.testing.assert_array_equal(loaded[name], state[name])

    def test_escape_unescape_inverse(self):
        from repro.runtime.checkpoint import _escape_name, _unescape_name

        for name in ["x.y", "x__y", "x_dy", "a/b_c.d", "", "_", "__", "._/"]:
            escaped = _escape_name(name)
            assert "." not in escaped and "/" not in escaped
            assert _unescape_name(escaped) == name
        assert _escape_name("conv__1.w") != _escape_name("conv.1__w")

    def test_has_stage(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save_stage(1, 0, 2, {"w": np.zeros(2)})
        assert manager.has_stage(1, 0, 2)
        assert not manager.has_stage(1, 0, 3)

    def test_latest_complete_epoch(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        for epoch in (0, 1):
            for stage in (0, 1):
                manager.save_stage(stage, 0, epoch, {"w": np.zeros(1)})
        # Epoch 2: only stage 0 landed (simulated crash mid-checkpoint).
        manager.save_stage(0, 0, 2, {"w": np.zeros(1)})
        assert manager.latest_complete_epoch(2, [1, 1]) == 1

    def test_no_checkpoints(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert manager.latest_complete_epoch(2, [1, 1]) is None

    def test_replicated_stage_counts(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save_stage(0, 0, 0, {"w": np.zeros(1)})
        manager.save_stage(0, 1, 0, {"w": np.zeros(1)})
        # Stage 1's replica missing: epoch incomplete.
        assert manager.latest_complete_epoch(2, [2, 1]) is None
        manager.save_stage(1, 0, 0, {"w": np.zeros(1)})
        assert manager.latest_complete_epoch(2, [2, 1]) == 0

    def test_list_checkpoints(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save_stage(0, 0, 0, {"w": np.zeros(1)})
        assert manager.list_checkpoints() == ["stage0_replica0_epoch0.npz"]


class TestTrainerCheckpointing:
    def test_restore_resumes_exact_weights(self, tmp_path, task):
        manager = CheckpointManager(str(tmp_path))
        trainer = make_trainer(fresh_model())
        trainer.train_minibatches(task)
        trainer.save_checkpoint(manager, epoch=0)
        reference = {
            name: p.data.copy()
            for name, p in trainer.consolidated_model().named_parameters()
        }

        # A "new process": fresh trainer with different init, restored.
        restarted = make_trainer(fresh_model(seed=99))
        assert restarted.restore_checkpoint(manager) == 0
        restored = restarted.consolidated_model()
        for name, p in restored.named_parameters():
            np.testing.assert_allclose(p.data, reference[name], err_msg=name)

    def test_restore_none_when_empty(self, tmp_path):
        trainer = make_trainer(fresh_model())
        assert trainer.restore_checkpoint(CheckpointManager(str(tmp_path))) is None

    def test_crash_mid_epoch_rolls_back(self, tmp_path, task):
        """Fault injection: epoch 1's checkpoint is partially written."""
        manager = CheckpointManager(str(tmp_path))
        trainer = make_trainer(fresh_model())
        trainer.train_minibatches(task)
        trainer.save_checkpoint(manager, epoch=0)
        epoch0 = {
            name: p.data.copy()
            for name, p in trainer.consolidated_model().named_parameters()
        }
        trainer.train_minibatches(task)
        # Simulate a crash: only stage 0's epoch-1 checkpoint lands.
        manager.save_stage(0, 0, 1, trainer.replicas[0][0].store._latest.state)

        restarted = make_trainer(fresh_model(seed=123))
        assert restarted.restore_checkpoint(manager) == 0  # rolled back
        for name, p in restarted.consolidated_model().named_parameters():
            np.testing.assert_allclose(p.data, epoch0[name], err_msg=name)

    def test_training_continues_after_restore(self, tmp_path, task):
        manager = CheckpointManager(str(tmp_path))
        trainer = make_trainer(fresh_model())
        loss0 = trainer.train_minibatches(task)
        trainer.save_checkpoint(manager, epoch=0)

        restarted = make_trainer(fresh_model(seed=50))
        restarted.restore_checkpoint(manager)
        loss1 = restarted.train_minibatches(task)
        assert loss1 < loss0  # picks up where training left off

    def test_replicated_stage_checkpointing(self, tmp_path, task):
        manager = CheckpointManager(str(tmp_path))
        trainer = make_trainer(fresh_model(), replicated=True)
        trainer.train_minibatches(task)
        trainer.save_checkpoint(manager, epoch=0)
        restarted = make_trainer(fresh_model(seed=51), replicated=True)
        assert restarted.restore_checkpoint(manager) == 0
        # Replicas restored identically.
        a, b = restarted.replicas[0]
        for (name, pa), (_, pb) in zip(
            a.module.named_parameters(), b.module.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)

    def test_version_store_resets_after_restore(self, tmp_path, task):
        manager = CheckpointManager(str(tmp_path))
        trainer = make_trainer(fresh_model())
        trainer.train_minibatches(task)
        trainer.save_checkpoint(manager, epoch=0)
        restarted = make_trainer(fresh_model(seed=52))
        restarted.restore_checkpoint(manager)
        assert restarted.stage_versions() == [0, 0, 0]
