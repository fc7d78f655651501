"""§3.3 memory-reduction features: activation recomputation and gradient
aggregation in the pipelined runtime."""

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.core.schedule import warmup_count
from repro.data import make_classification_data, make_seq2seq_data
from repro.models import build_gnmt, build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD, Adam
from repro.runtime import PipelineTrainer, SequentialTrainer

LOSS = CrossEntropyLoss()
STAGES = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)]


@pytest.fixture
def task():
    X, y = make_classification_data(num_samples=96, seed=7)
    return [(X[i * 12 : (i + 1) * 12], y[i * 12 : (i + 1) * 12]) for i in range(8)]


def fresh_model(seed=31):
    return build_mlp(rng=np.random.default_rng(seed))


def assert_same_weights(a, b, atol=1e-10):
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_allclose(pa.data, pb.data, atol=atol, err_msg=name)


class TestActivationRecomputation:
    def test_identical_weights_to_plain_pipeline(self, task):
        """Recomputing with the stashed version must not change training."""
        m_plain, m_rec = fresh_model(), fresh_model()
        plain = PipelineTrainer(m_plain, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05))
        rec = PipelineTrainer(m_rec, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05),
                              recompute_activations=True)
        plain.train_minibatches(task)
        rec.train_minibatches(task)
        assert_same_weights(plain.consolidated_model(), rec.consolidated_model())

    def test_identical_for_single_stage(self, task):
        m_rec, m_ref = fresh_model(), fresh_model()
        rec = PipelineTrainer(m_rec, [Stage(0, 3, 1)], LOSS,
                              lambda ps: SGD(ps, lr=0.05),
                              recompute_activations=True)
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.05))
        rec.train_minibatches(task)
        ref.train_epoch(task)
        assert_same_weights(rec.consolidated_model(), m_ref)

    def test_works_with_embedding_input(self):
        """Token-id (integer) inputs survive the recompute round trip."""
        model = build_gnmt(num_lstm_layers=2, vocab_size=10, hidden_size=8,
                           rng=np.random.default_rng(2))
        src, tgt = make_seq2seq_data(num_samples=32, seq_len=5, vocab_size=10)
        batches = [(src[i * 8 : (i + 1) * 8], tgt[i * 8 : (i + 1) * 8]) for i in range(4)]
        trainer = PipelineTrainer(
            model, [Stage(0, 2, 1), Stage(2, 4, 1)], LOSS,
            lambda ps: Adam(ps, lr=0.01), recompute_activations=True,
        )
        losses = [trainer.train_minibatches(batches) for _ in range(4)]
        assert losses[-1] < losses[0]

    def test_reduces_tracked_activation_memory(self, task):
        m_plain, m_rec = fresh_model(), fresh_model()
        plain = PipelineTrainer(m_plain, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05))
        rec = PipelineTrainer(m_rec, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05),
                              recompute_activations=True)
        plain.train_minibatches(task)
        rec.train_minibatches(task)
        # The input stage stashes full tapes in one case, raw inputs in the
        # other: its tracked peak must drop.
        assert rec.stats.peak_memory_bytes[0] < plain.stats.peak_memory_bytes[0]

    def test_works_with_vertical_sync(self, task):
        m = fresh_model()
        trainer = PipelineTrainer(m, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05),
                                  policy="vertical_sync",
                                  recompute_activations=True)
        losses = [trainer.train_minibatches(task) for _ in range(3)]
        assert losses[-1] < losses[0]


class TestGradientAccumulation:
    def test_single_stage_matches_large_batch_sgd(self, task):
        """Accumulating k rounds on one stage == SGD on k-batch averages,
        sample-weighted when the batches differ in size."""
        X = np.concatenate([x for x, _ in task])
        Y = np.concatenate([y for _, y in task])
        cuts = np.cumsum([0, 8, 16, 12, 12, 18, 6, 15, 9])
        uneven = [(X[a:b], Y[a:b]) for a, b in zip(cuts, cuts[1:])]
        for batches in (task, uneven):
            m_acc, m_ref = fresh_model(), fresh_model()
            acc = PipelineTrainer(m_acc, [Stage(0, 3, 1)], LOSS,
                                  lambda ps: SGD(ps, lr=0.05),
                                  gradient_accumulation=2)
            ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.05))
            acc.train_minibatches(batches)
            # Reference: one update per two minibatches, gradient averaged.
            for i in range(0, len(batches), 2):
                (x1, y1), (x2, y2) = batches[i], batches[i + 1]
                big_x = np.concatenate([x1, x2])
                big_y = np.concatenate([y1, y2])
                ref.train_minibatch(big_x, big_y)
            assert_same_weights(acc.consolidated_model(), m_ref)

    def test_fewer_weight_versions(self, task):
        m1, m2 = fresh_model(), fresh_model()
        per_batch = PipelineTrainer(m1, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05))
        accumulated = PipelineTrainer(m2, STAGES, LOSS, lambda ps: SGD(ps, lr=0.05),
                                      gradient_accumulation=4)
        per_batch.train_minibatches(task)
        accumulated.train_minibatches(task)
        assert per_batch.stage_versions() == [8, 8, 8]
        assert accumulated.stage_versions() == [2, 2, 2]

    def test_partial_tail_flushes(self, task):
        """A trailing group smaller than the accumulation window still
        applies its gradients (no silent loss of the last minibatches)."""
        m = fresh_model()
        trainer = PipelineTrainer(m, [Stage(0, 3, 1)], LOSS,
                                  lambda ps: SGD(ps, lr=0.05),
                                  gradient_accumulation=3)
        trainer.train_minibatches(task)  # 8 batches: updates after 3, 6, 8
        assert trainer.stage_versions() == [3]

    def test_invalid_accumulation_rejected(self, task):
        with pytest.raises(ValueError):
            PipelineTrainer(fresh_model(), STAGES, LOSS,
                            lambda ps: SGD(ps, lr=0.05),
                            gradient_accumulation=0)

    def test_still_converges(self, task):
        trainer = PipelineTrainer(fresh_model(), STAGES, LOSS,
                                  lambda ps: SGD(ps, lr=0.1),
                                  gradient_accumulation=2)
        losses = [trainer.train_minibatches(task) for _ in range(6)]
        assert losses[-1] < 0.5 * losses[0]


def two_buffered(lr):
    """PipeDream-2BW: aggregate gradients over the pipeline's warmup depth."""
    return PipelineTrainer(fresh_model(), STAGES, LOSS,
                           lambda ps: SGD(ps, lr=lr),
                           gradient_accumulation=warmup_count(STAGES, 0))


class TestTwoBufferedWeights:
    """PipeDream-2BW extension: at most two live weight versions."""

    def test_live_versions_bounded_by_two(self, task):
        trainer = two_buffered(lr=0.05)
        for _ in range(3):
            trainer.train_minibatches(task)
        assert max(trainer.stats.peak_live_versions.values()) <= 2

    def test_default_pipeline_exceeds_two(self, task):
        """Without 2BW, the input stage stashes one version per in-flight
        minibatch (3 here), confirming the bound above is not vacuous."""
        trainer = PipelineTrainer(fresh_model(), STAGES, LOSS,
                                  lambda ps: SGD(ps, lr=0.05))
        trainer.train_minibatches(task)
        assert trainer.stats.peak_live_versions[0] > 2

    def test_two_buffered_converges(self, task):
        trainer = two_buffered(lr=0.1)
        losses = [trainer.train_minibatches(task) for _ in range(6)]
        assert losses[-1] < 0.6 * losses[0]

    def test_accumulation_window_is_warmup_depth(self, task):
        trainer = two_buffered(lr=0.05)
        assert trainer.gradient_accumulation == 3  # 3-stage straight pipeline
