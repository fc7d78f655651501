"""BSP and ASP data parallelism as schedule tables.

BSP (§2.1) is ``PipelineTrainer`` on one stage of ``n`` replicas: 1F1B-RR
routes minibatch ``b`` to replica ``b mod n`` and all-reduces each round of
``n``, so it equals SGD on each round's concatenated batch.  ASP (§5.2) is
:func:`asp_schedule` on one single-replica stage, held bitwise to the
parameter-server oracle in ``tests/oracles/asp_reference.py``.
"""

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.core.schedule import asp_schedule, one_f_one_b_rr_schedule
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import PipelineTrainer, SequentialTrainer
from tests.oracles.asp_reference import ASPTrainer


LOSS = CrossEntropyLoss()


@pytest.fixture
def task():
    X, y = make_classification_data(num_samples=128, seed=2)
    return [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(8)]


def fresh_model(seed=11):
    return build_mlp(rng=np.random.default_rng(seed))


def assert_same_weights(a, b, atol=1e-12):
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_allclose(pa.data, pb.data, atol=atol, err_msg=name)


def sgd(lr=0.1, momentum=0.0):
    return lambda ps: SGD(ps, lr=lr, momentum=momentum)


def bsp_trainer(model, num_workers, optimizer_factory=None):
    return PipelineTrainer(model, [Stage(0, model.num_layers, num_workers)],
                           LOSS, optimizer_factory or sgd())


def asp_trainer(model, optimizer_factory=None):
    return PipelineTrainer(model, [Stage(0, model.num_layers, 1)], LOSS,
                           optimizer_factory or sgd())


def asp_epoch(trainer, batches, num_workers):
    schedule = asp_schedule(num_workers, len(batches), trainer.model.num_layers)
    return trainer.execute(schedule, batches)


def sequential_on_groups(model, batches, group, lr=0.1):
    """SGD with one step per ``group`` consecutive batches, concatenated."""
    ref = SequentialTrainer(model, LOSS, SGD(model.parameters(), lr=lr))
    for start in range(0, len(batches), group):
        shards = batches[start:start + group]
        ref.train_minibatch(np.concatenate([x for x, _ in shards]),
                            np.concatenate([y for _, y in shards]))


class TestBSP:
    def test_single_worker_equals_sequential(self, task):
        m_ref = fresh_model()
        bsp = bsp_trainer(fresh_model(), 1)
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.1))
        bsp.train_epoch(task)
        ref.train_epoch(task)
        assert_same_weights(bsp.consolidated_model(), m_ref)

    def test_gradient_averaging_equals_combined_batch(self, task):
        """n shards averaged == SGD on the concatenated global minibatch."""
        for num_workers in (1, 2, 4):
            m_ref = fresh_model()
            bsp = bsp_trainer(fresh_model(), num_workers)
            bsp.train_epoch(task)
            sequential_on_groups(m_ref, task, num_workers)
            assert_same_weights(bsp.consolidated_model(), m_ref, atol=1e-10)

    def test_trailing_partial_group_is_a_partial_round(self, task):
        """6 batches on 4 workers: a round of 4, then a round of 2."""
        m_ref = fresh_model()
        bsp = bsp_trainer(fresh_model(), 4)
        bsp.train_epoch(task[:6])
        assert bsp.stage_versions() == [2]
        sequential_on_groups(m_ref, task[:6], 4)
        assert_same_weights(bsp.consolidated_model(), m_ref, atol=1e-10)

    def test_wrong_shard_count_rejected(self, task):
        """A table built for 2 workers does not run on 4."""
        bsp = bsp_trainer(fresh_model(), 4)
        schedule = one_f_one_b_rr_schedule([Stage(0, 3, 2)], len(task))
        with pytest.raises(ValueError, match="schedule stages"):
            bsp.execute(schedule, task)

    def test_epoch_consumes_groups(self, task):
        bsp = bsp_trainer(fresh_model(), 4)
        loss = bsp.train_epoch(task)  # 8 batches -> 2 sync steps
        assert np.isfinite(loss)
        assert bsp.stage_versions() == [2]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            bsp_trainer(fresh_model(), 0)

    def test_converges(self, task):
        bsp = bsp_trainer(fresh_model(), 2)
        losses = [bsp.train_epoch(task) for _ in range(6)]
        assert losses[-1] < 0.5 * losses[0]


class TestASP:
    def test_single_worker_equals_sequential(self, task):
        """With one worker there is no staleness at all."""
        m_ref = fresh_model()
        asp = asp_trainer(fresh_model())
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.1))
        asp_epoch(asp, task, 1)
        ref.train_epoch(task)
        assert_same_weights(asp.consolidated_model(), m_ref)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_equals_oracle_over_one_epoch(self, task, num_workers, momentum):
        asp = asp_trainer(fresh_model(), sgd(momentum=momentum))
        m_oracle = fresh_model()
        oracle = ASPTrainer(m_oracle, LOSS, sgd(momentum=momentum), num_workers)
        assert asp_epoch(asp, task, num_workers) == oracle.train_epoch(task)
        for (name, pa), (_, pb) in zip(
                asp.consolidated_model().named_parameters(),
                m_oracle.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)

    def test_stale_gradients_differ_from_bsp(self, task):
        m_seq = fresh_model()
        asp = asp_trainer(fresh_model())
        seq = SequentialTrainer(m_seq, LOSS, SGD(m_seq.parameters(), lr=0.1))
        asp_epoch(asp, task, 4)
        seq.train_epoch(task)
        diffs = [
            np.abs(pa.data - pb.data).max()
            for (_, pa), (_, pb) in zip(asp.consolidated_model().named_parameters(),
                                        m_seq.named_parameters())
        ]
        assert max(diffs) > 1e-9

    def test_still_converges_on_easy_task(self, task):
        asp = asp_trainer(fresh_model(), sgd(lr=0.05))
        losses = [asp_epoch(asp, task, 4) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_worker_snapshots_are_stale(self, task):
        """Minibatch b's gradient is computed on the weights of n - 1
        pushes before b's own: version max(0, b - n + 1)."""
        for num_workers in (1, 2, 4):
            asp = asp_trainer(fresh_model())
            asp_epoch(asp, task, num_workers)
            assert asp.stats.forward_versions == {
                (0, b): max(0, b - num_workers + 1) for b in range(len(task))}

    def test_staleness_resets_at_each_epoch_drain(self, task):
        """The table drains at every epoch's end, so epoch 2 restarts from
        fresh snapshots; the oracle carries its staleness across."""
        asp = asp_trainer(fresh_model())
        asp_epoch(asp, task, 4)
        asp_epoch(asp, task, 4)
        assert asp.stats.forward_versions[(0, 0)] == len(task)
        assert asp.stats.forward_versions[(0, 3)] == len(task)
        assert asp.stats.forward_versions[(0, 4)] == len(task) + 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_statistical_efficiency_worse_at_high_lr(self):
        """§5.2's ASP comparison: staleness hurts at aggressive step sizes."""
        X, y = make_classification_data(num_samples=256, seed=3, noise=1.0)
        batches = [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(16)]
        factory = sgd(lr=0.8, momentum=0.9)
        bsp = bsp_trainer(fresh_model(5), 4, factory)
        asp = asp_trainer(fresh_model(5), factory)
        bsp_loss = np.mean([bsp.train_epoch(batches) for _ in range(6)][-2:])
        asp_loss = np.mean([asp_epoch(asp, batches, 4) for _ in range(6)][-2:])
        # ASP no better, typically worse; here it diverges, and a run that
        # overflows to NaN counts as worse.
        assert np.isnan(asp_loss) or asp_loss > bsp_loss * 0.8
