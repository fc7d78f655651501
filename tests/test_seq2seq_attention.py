"""Encoder-decoder attention model and multi-tensor stage boundaries."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core.partition import Stage
from repro.models.seq2seq import (
    LuongAttention,
    build_attention_seq2seq,
    make_reversal_data,
)
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.runtime import (
    PipelineTrainer,
    ThreadedPipelineTrainer,
    evaluate_accuracy,
)
from tests.oracles.gradcheck import gradcheck
from tests.oracles.sgd_reference import SequentialTrainer

LOSS = CrossEntropyLoss()


@pytest.fixture
def task():
    (src, tgt_in), tgt_out = make_reversal_data(num_samples=96, seq_len=5,
                                                vocab_size=9, seed=1)
    batches = [
        ((src[i * 16 : (i + 1) * 16], tgt_in[i * 16 : (i + 1) * 16]),
         tgt_out[i * 16 : (i + 1) * 16])
        for i in range(6)
    ]
    return (src, tgt_in), tgt_out, batches


def build(seed=2, hidden=24):
    return build_attention_seq2seq(vocab_size=10, hidden=hidden,
                                   rng=np.random.default_rng(seed))


class TestReversalData:
    def test_target_is_reversed_source(self):
        (src, tgt_in), tgt_out = make_reversal_data(num_samples=5, seq_len=4,
                                                    vocab_size=7, seed=0)
        np.testing.assert_array_equal(tgt_out, src[:, ::-1])

    def test_teacher_forcing_shift(self):
        (src, tgt_in), tgt_out = make_reversal_data(num_samples=5, seq_len=4,
                                                    vocab_size=7, seed=0)
        assert (tgt_in[:, 0] == 7).all()  # BOS id == vocab_size
        np.testing.assert_array_equal(tgt_in[:, 1:], tgt_out[:, :-1])


class TestLuongAttention:
    def test_output_shape(self, rng):
        attn = LuongAttention(8, rng=rng)
        dec = Tensor(rng.standard_normal((2, 3, 8)))
        enc = Tensor(rng.standard_normal((2, 5, 8)))
        assert attn(dec, enc).shape == (2, 3, 8)

    def test_gradcheck(self, rng):
        attn = LuongAttention(4, rng=rng)
        dec = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)
        enc = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        assert gradcheck(lambda d, e: (attn(d, e) ** 2).mean(), [dec, enc],
                         atol=1e-4)

    def test_attends_to_relevant_position(self, rng):
        """A decoder state matching one encoder position pulls its value."""
        attn = LuongAttention(4, rng=rng)
        enc = np.zeros((1, 3, 4))
        enc[0, 2] = [10.0, 0, 0, 0]  # distinctive key at position 2
        dec = np.array([[[10.0, 0, 0, 0]]])  # query aligned with position 2
        scores = (Tensor(dec) @ Tensor(enc).transpose(0, 2, 1)).data
        assert scores[0, 0].argmax() == 2


class TestModel:
    def test_forward_shapes(self, task):
        (src, tgt_in), tgt_out, _ = task
        model = build()
        logits = model((src[:4], tgt_in[:4]))
        assert logits.shape == (4, 5, 10)

    def test_layer_graph_traces_tuples(self, task):
        from repro.profiler import profile_model

        (src, tgt_in), _, _ = task
        model = build()
        profile = profile_model(model, (src[:1], tgt_in[:1]), 1, 0)
        assert len(profile) == model.num_layers
        assert all(l.activation_bytes > 0 for l in profile)

    def test_learns_reversal(self, task):
        """Reversal needs attention: output t depends on input S-1-t."""
        (src, tgt_in), tgt_out, batches = task
        model = build(hidden=32)
        trainer = SequentialTrainer(model, LOSS, Adam(model.parameters(), lr=0.01))
        for _ in range(25):
            trainer.train_epoch(batches)
        assert evaluate_accuracy(model, (src, tgt_in), tgt_out) > 0.85

    def test_measured_profiler_handles_tuples(self, task):
        from repro.profiler import profile_model

        (src, tgt_in), _, _ = task
        model = build()
        profile = profile_model(model, (src[:8], tgt_in[:8]), 1, 0)
        assert len(profile) == model.num_layers
        assert profile.total_weight_bytes == model.parameter_bytes()


class TestPipelinedSeq2Seq:
    def test_single_stage_bitwise_equals_sequential(self, task):
        (src, tgt_in), tgt_out, batches = task
        m_pipe, m_ref = build(), build()
        n = m_pipe.num_layers
        pipe = PipelineTrainer(m_pipe, [Stage(0, n, 1)], LOSS,
                               lambda ps: Adam(ps, lr=0.01))
        ref = SequentialTrainer(m_ref, LOSS, Adam(m_ref.parameters(), lr=0.01))
        pipe.train_minibatches(batches)
        ref.train_epoch(batches)
        pipe.consolidated_model()
        for (name, pa), (_, pb) in zip(m_pipe.named_parameters(),
                                       m_ref.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-10, err_msg=name)

    def test_encoder_decoder_split_trains(self, task):
        """The boundary between stages carries a TUPLE (enc_out, state)."""
        (src, tgt_in), tgt_out, batches = task
        model = build(hidden=32)
        n = model.num_layers
        bridge = model.layer_names.index("bridge")
        stages = [Stage(0, bridge, 1), Stage(bridge, n, 1)]
        trainer = PipelineTrainer(model, stages, LOSS,
                                  lambda ps: Adam(ps, lr=0.01))
        losses = [trainer.train_minibatches(batches) for _ in range(20)]
        assert losses[-1] < 0.4 * losses[0]
        acc = evaluate_accuracy(trainer.consolidated_model(), (src, tgt_in), tgt_out)
        assert acc > 0.7

    def test_three_stage_split_with_mid_decoder_boundary(self, task):
        """A cut between decoder layers ships (enc_out, dec_state) — two
        float tensors whose gradients both flow back across the boundary."""
        (src, tgt_in), tgt_out, batches = task
        model = build(hidden=24)
        names = model.layer_names
        cut1 = names.index("bridge")
        cut2 = names.index("dec2")
        stages = [Stage(0, cut1, 1), Stage(cut1, cut2, 1),
                  Stage(cut2, model.num_layers, 1)]
        trainer = PipelineTrainer(model, stages, LOSS,
                                  lambda ps: Adam(ps, lr=0.01))
        losses = [trainer.train_minibatches(batches) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_threaded_runtime_matches_logical(self, task):
        (src, tgt_in), tgt_out, batches = task
        m_log, m_thr = build(), build()
        names = m_log.layer_names
        cut = names.index("bridge")
        stages = [Stage(0, cut, 1), Stage(cut, m_log.num_layers, 1)]
        logical = PipelineTrainer(m_log, stages, LOSS, lambda ps: Adam(ps, lr=0.01))
        threaded = ThreadedPipelineTrainer(m_thr, stages, LOSS,
                                           lambda ps: Adam(ps, lr=0.01))
        logical.train_minibatches(batches)
        threaded.train_minibatches(batches)
        for (name, pa), (_, pb) in zip(
            logical.consolidated_model().named_parameters(),
            threaded.consolidated_model().named_parameters(),
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12, err_msg=name)

    def test_recompute_with_tuple_boundaries(self, task):
        (src, tgt_in), tgt_out, batches = task
        m_plain, m_rec = build(), build()
        cut = m_plain.layer_names.index("bridge")
        stages = [Stage(0, cut, 1), Stage(cut, m_plain.num_layers, 1)]
        plain = PipelineTrainer(m_plain, stages, LOSS, lambda ps: Adam(ps, lr=0.01))
        rec = PipelineTrainer(m_rec, stages, LOSS, lambda ps: Adam(ps, lr=0.01),
                              recompute_activations=True)
        plain.train_minibatches(batches)
        rec.train_minibatches(batches)
        for (name, pa), (_, pb) in zip(
            plain.consolidated_model().named_parameters(),
            rec.consolidated_model().named_parameters(),
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-10, err_msg=name)
