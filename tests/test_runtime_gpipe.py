"""GPipe (§2.2) as a schedule table: microbatches with one flush per batch.

GPipe is :func:`gpipe_schedule` over :func:`split_microbatches`, run by
``PipelineTrainer.execute`` on the trainer's own stages.  Every update
applies the sample-weighted mean gradient of a whole batch at one weight
version, so GPipe equals ``SequentialTrainer``'s SGD on that batch for any
microbatch count, stage split and schedule family.
"""

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.core.schedule import gpipe_schedule, schedule_for_family
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import (
    PipelineTrainer,
    ThreadedPipelineTrainer,
    split_microbatches,
)
from tests.oracles.sgd_reference import SequentialTrainer
from tests.test_runtime_golden import outcome


LOSS = CrossEntropyLoss()
PLANS = {
    1: [Stage(0, 3, 1)],
    2: [Stage(0, 1, 1), Stage(1, 3, 1)],
    3: [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)],
}


@pytest.fixture
def task():
    X, y = make_classification_data(num_samples=128, seed=4)
    return [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(8)]


def fresh_model(seed=13):
    return build_mlp(rng=np.random.default_rng(seed))


def assert_same_weights(a, b, atol=1e-10):
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_allclose(pa.data, pb.data, atol=atol, err_msg=name)


def gpipe_trainer(model, num_stages=1, lr=0.1, trainer_cls=PipelineTrainer,
                  **kwargs):
    return trainer_cls(model, PLANS[num_stages], LOSS,
                       lambda ps: SGD(ps, lr=lr), **kwargs)


def gpipe(trainer, batches, num_microbatches, family="1f1b"):
    """Train ``batches`` as GPipe through ``trainer``'s stages."""
    bounds = [(stage.start, stage.stop) for stage in trainer.stages]
    schedule = gpipe_schedule(len(bounds), len(batches), num_microbatches,
                              layer_bounds=bounds)
    return trainer.execute(schedule_for_family(schedule, family),
                           split_microbatches(batches, num_microbatches))


class TestGPipeSemantics:
    @pytest.mark.parametrize("micros", [1, 2, 4])
    def test_equals_sequential_sgd(self, task, micros):
        """Microbatch aggregation + flush == plain SGD on the minibatch,
        on 1, 2 and 3 stages under both schedule families."""
        m_ref = fresh_model()
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.1))
        ref.train_epoch(task)
        for num_stages in PLANS:
            for family in ("1f1b", "2bp"):
                gp = gpipe_trainer(fresh_model(), num_stages)
                gpipe(gp, task, micros, family)
                assert_same_weights(gp.consolidated_model(), m_ref)

    def test_recompute_gives_identical_weights(self, task):
        plain = gpipe_trainer(fresh_model(), 3)
        rec = gpipe_trainer(fresh_model(), 3, recompute_activations=True)
        gpipe(plain, task, 4)
        gpipe(rec, task, 4)
        assert_same_weights(plain.consolidated_model(), rec.consolidated_model())

    def test_uneven_microbatches_weighted_correctly(self):
        """A minibatch of 10 into 4 microbatches (3+3+2+2) still equals SGD,
        and its loss is the whole batch's."""
        X, y = make_classification_data(num_samples=10, seed=9)
        assert [len(my) for _, my in split_microbatches([(X, y)], 4)] == [3, 3, 2, 2]
        m_ref = fresh_model()
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.1))
        ref_loss = ref.train_minibatch(X, y)
        for num_stages in PLANS:
            gp = gpipe_trainer(fresh_model(), num_stages)
            assert gpipe(gp, [(X, y)], 4) == pytest.approx(ref_loss, rel=1e-9)
            assert_same_weights(gp.consolidated_model(), m_ref)

    def test_minibatch_too_small_rejected(self):
        X, y = make_classification_data(num_samples=2, seed=9)
        with pytest.raises(ValueError, match="num_microbatches"):
            split_microbatches([(X, y)], 4)

    @pytest.mark.parametrize("micros", [0, -1])
    def test_microbatch_count_below_one_rejected(self, micros):
        X, y = make_classification_data(num_samples=8, seed=9)
        with pytest.raises(ValueError, match="num_microbatches"):
            split_microbatches([(X, y)], micros)

    def test_stage_coverage_validated(self, task):
        """Neither the trainer's stages nor the table's may stop short."""
        with pytest.raises(ValueError, match="cover the whole model"):
            PipelineTrainer(fresh_model(), [Stage(0, 2, 1)], LOSS,
                            lambda ps: SGD(ps, lr=0.1))
        gp = gpipe_trainer(fresh_model(), 1)
        with pytest.raises(ValueError, match="schedule stages"):
            gp.execute(gpipe_schedule(1, len(task), 2, [(0, 2)]),
                       split_microbatches(task, 2))

    def test_batches_must_be_the_tables_microbatches(self, task):
        gp = gpipe_trainer(fresh_model(), 2)
        with pytest.raises(ValueError, match="8 batches for 16 minibatches"):
            gp.execute(gpipe_schedule(2, len(task), 2, [(0, 1), (1, 3)]), task)

    def test_loss_is_sample_weighted_mean(self, task):
        gp = gpipe_trainer(fresh_model(), 1, lr=0.0)
        x, y = task[0]
        loss_gp = gpipe(gp, [(x, y)], 2)
        loss_ref = LOSS(fresh_model()(x), y).item()
        assert loss_gp == pytest.approx(loss_ref, rel=1e-9)

    def test_converges(self, task):
        gp = gpipe_trainer(fresh_model(), 3)
        losses = [gpipe(gp, task, 4) for _ in range(6)]
        assert losses[-1] < 0.5 * losses[0]


class TestThreadedGPipe:
    @pytest.mark.parametrize("family", ["1f1b", "2bp"])
    def test_threaded_equals_logical(self, task, family):
        """Losses, weights, versions, memory stats and traffic, bitwise."""
        logical = gpipe_trainer(fresh_model(), 3)
        threaded = gpipe_trainer(fresh_model(), 3,
                                 trainer_cls=ThreadedPipelineTrainer)
        for _ in range(2):
            assert gpipe(threaded, task, 4, family) == gpipe(logical, task, 4, family)
        assert outcome(threaded) == outcome(logical)
