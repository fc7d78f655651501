"""Evaluation metrics and the high-level fit loop."""

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.data import make_classification_data, make_seq2seq_data
from repro.data.metrics import (
    corpus_bleu,
    greedy_decode,
    perplexity_from_loss,
    token_f_score,
    translation_bleu,
)
from repro.models import build_gnmt, build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD, Adam
from repro.runtime import CheckpointManager, PipelineTrainer, evaluate_accuracy
from repro.runtime.loop import fit
from tests.oracles.sgd_reference import SequentialTrainer


class TestBLEU:
    def test_perfect_match_is_100(self):
        refs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
        assert corpus_bleu(refs, refs) == pytest.approx(100.0)

    def test_no_overlap_near_zero(self):
        assert corpus_bleu([[1, 1, 1, 1]], [[2, 3, 4, 5]]) < 1.0

    def test_partial_overlap_between(self):
        score = corpus_bleu([[1, 2, 3, 9, 9]], [[1, 2, 3, 4, 5]])
        assert 0.0 < score < 100.0

    def test_brevity_penalty(self):
        """Short hypotheses are penalized even with perfect precision."""
        long_score = corpus_bleu([[1, 2, 3, 4, 5, 6]], [[1, 2, 3, 4, 5, 6]])
        short_score = corpus_bleu([[1, 2, 3]], [[1, 2, 3, 4, 5, 6]])
        assert short_score < long_score

    def test_clipping_counts_repeats_once(self):
        """Repeating a reference token does not inflate precision."""
        inflated = corpus_bleu([[1, 1, 1, 1]], [[1, 2, 3, 4]])
        honest = corpus_bleu([[1, 2, 3, 4]], [[1, 2, 3, 4]])
        assert inflated < honest

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [[1], [2]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])


class TestOtherMetrics:
    def test_f_score_perfect(self):
        assert token_f_score([[1, 2, 3]], [[1, 2, 3]]) == pytest.approx(1.0)

    def test_f_score_zero(self):
        assert token_f_score([[1, 1]], [[2, 3]]) == 0.0

    def test_f_score_recall_weighted(self):
        """Missing reference tokens hurts more than extra hypothesis ones."""
        low_recall = token_f_score([[1]], [[1, 2, 3, 4]])
        low_precision = token_f_score([[1, 5, 6, 7]], [[1]])
        assert low_recall < low_precision

    def test_perplexity(self):
        assert perplexity_from_loss(0.0) == 1.0
        assert perplexity_from_loss(np.log(50.0)) == pytest.approx(50.0)

    def test_greedy_decode_shape(self, rng):
        model = build_gnmt(num_lstm_layers=2, vocab_size=9, hidden_size=8, rng=rng)
        out = greedy_decode(model, rng.integers(0, 9, (3, 5)))
        assert out.shape == (3, 5)
        assert out.dtype.kind == "i"

    def test_translation_bleu_improves_with_training(self, rng):
        model = build_gnmt(num_lstm_layers=2, vocab_size=10, hidden_size=16, rng=rng)
        src, tgt = make_seq2seq_data(num_samples=64, seq_len=6, vocab_size=10, seed=3)
        before = translation_bleu(model, src, tgt)
        trainer = SequentialTrainer(model, CrossEntropyLoss(),
                                    Adam(model.parameters(), lr=0.02))
        batches = [(src[i * 16 : (i + 1) * 16], tgt[i * 16 : (i + 1) * 16]) for i in range(4)]
        for _ in range(10):
            trainer.train_epoch(batches)
        after = translation_bleu(model, src, tgt)
        assert after > before
        assert after > 50.0


class TestFitLoop:
    def _task(self):
        X, y = make_classification_data(num_samples=96, seed=17)
        batches = [(X[i * 12 : (i + 1) * 12], y[i * 12 : (i + 1) * 12]) for i in range(8)]
        return X, y, batches

    def test_early_stop_at_target(self):
        X, y, batches = self._task()
        model = build_mlp(rng=np.random.default_rng(60))
        trainer = SequentialTrainer(model, CrossEntropyLoss(),
                                    SGD(model.parameters(), lr=0.1))
        result = fit(trainer, batches,
                     evaluate=lambda: evaluate_accuracy(model, X, y),
                     epochs=30, target_metric=0.95)
        assert result.reached_target
        assert result.epochs_to_target is not None
        assert result.epochs_to_target < 30
        assert len(result.history.epochs) == result.epochs_to_target

    def test_runs_all_epochs_without_target(self):
        X, y, batches = self._task()
        model = build_mlp(rng=np.random.default_rng(61))
        trainer = SequentialTrainer(model, CrossEntropyLoss(),
                                    SGD(model.parameters(), lr=0.05))
        result = fit(trainer, batches,
                     evaluate=lambda: evaluate_accuracy(model, X, y),
                     epochs=4)
        assert result.epochs_run == 4
        assert not result.reached_target

    def test_pipeline_checkpointing_and_resume(self, tmp_path):
        X, y, batches = self._task()
        manager = CheckpointManager(str(tmp_path))
        stages = [Stage(0, 2, 1), Stage(2, 3, 1)]

        model = build_mlp(rng=np.random.default_rng(63))
        trainer = PipelineTrainer(model, stages, CrossEntropyLoss(),
                                  lambda ps: SGD(ps, lr=0.05))
        fit(trainer, batches,
            evaluate=lambda: evaluate_accuracy(trainer.consolidated_model(), X, y),
            epochs=3, checkpoint_manager=manager)
        assert manager.latest_complete_epoch(2, [1, 1]) == 2

        # Resume into a fresh trainer: continues at epoch 3.
        model2 = build_mlp(rng=np.random.default_rng(99))
        trainer2 = PipelineTrainer(model2, stages, CrossEntropyLoss(),
                                   lambda ps: SGD(ps, lr=0.05))
        result = fit(trainer2, batches,
                     evaluate=lambda: evaluate_accuracy(
                         trainer2.consolidated_model(), X, y),
                     epochs=5, checkpoint_manager=manager, resume=True)
        assert result.history.epochs[0] == 3
        assert result.epochs_run == 2

    def test_resume_requires_manager(self):
        X, y, batches = self._task()
        model = build_mlp(rng=np.random.default_rng(64))
        trainer = SequentialTrainer(model, CrossEntropyLoss(),
                                    SGD(model.parameters(), lr=0.05))
        with pytest.raises(ValueError):
            fit(trainer, batches, evaluate=lambda: 0.0, epochs=1, resume=True)
