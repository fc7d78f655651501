"""Attention layers and the Transformer extension model."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.topology import make_cluster
from repro.data import make_lm_data
from repro.models import build_transformer
from repro.nn import CrossEntropyLoss
from repro.nn.attention import (
    LayerNorm,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
)
from repro.optim import Adam
from repro.profiler import profile_model
from repro.runtime import PipelineTrainer, SequentialTrainer, evaluate_accuracy
from tests.oracles.gradcheck import gradcheck


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        ln = LayerNorm(8)
        x = Tensor(rng.standard_normal((4, 3, 8)) * 5 + 2)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradcheck(self, rng):
        ln = LayerNorm(5)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        assert gradcheck(lambda x: (ln(x) ** 2).mean(), [x], atol=1e-4)

    def test_learned_affine(self, rng):
        ln = LayerNorm(4)
        ln.weight.data = np.full(4, 2.0)
        ln.bias.data = np.full(4, 1.0)
        x = Tensor(rng.standard_normal((3, 4)))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-9)


class TestMultiHeadSelfAttention:
    def test_output_shape(self, rng):
        mhsa = MultiHeadSelfAttention(12, 3, rng=rng)
        assert mhsa(Tensor(rng.standard_normal((2, 5, 12)))).shape == (2, 5, 12)

    def test_gradcheck(self, rng):
        mhsa = MultiHeadSelfAttention(6, 2, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 6)), requires_grad=True)
        assert gradcheck(lambda x: (mhsa(x) ** 2).mean(), [x], atol=1e-4)

    def test_bad_head_count_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, rng=rng)

    def test_attention_mixes_positions(self, rng):
        """Changing one timestep changes the outputs at other timesteps."""
        mhsa = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.standard_normal((1, 4, 8))
        base = mhsa(Tensor(x)).data
        x2 = x.copy()
        x2[0, 0] += 1.0
        perturbed = mhsa(Tensor(x2)).data
        assert not np.allclose(base[0, 3], perturbed[0, 3])

    def test_param_count(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng=rng)
        expected = 8 * 24 + 24 + 8 * 8 + 8  # qkv + proj
        assert mhsa.num_parameters() == expected


class TestTransformerEncoderLayer:
    def test_residual_structure(self, rng):
        """Zeroing the sublayer outputs leaves the input unchanged."""
        block = TransformerEncoderLayer(8, 2, rng=rng)
        block.attention.proj.weight.data[:] = 0.0
        block.attention.proj.bias.data[:] = 0.0
        block.ffn_out.weight.data[:] = 0.0
        block.ffn_out.bias.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 3, 8)))
        np.testing.assert_allclose(block(x).data, x.data, atol=1e-12)

    def test_gradcheck(self, rng):
        block = TransformerEncoderLayer(4, 2, ffn_dim=8, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)
        assert gradcheck(lambda x: (block(x) ** 2).mean(), [x], atol=1e-4)


class TestTransformerModel:
    def test_forward_shape(self, rng):
        model = build_transformer(num_layers=2, vocab_size=16, dim=8,
                                  num_heads=2, rng=rng)
        tokens = rng.integers(0, 16, (3, 6))
        assert model(tokens).shape == (3, 6, 16)

    def test_layer_graph_kinds(self, rng):
        model = build_transformer(num_layers=2, vocab_size=16, dim=8,
                                  num_heads=2, rng=rng)
        profile = profile_model(model, np.zeros((1, 6), dtype=np.int64),
                                num_iterations=1, warmup=0)
        kinds = [l.kind for l in profile]
        assert kinds == ["embedding", "attention", "attention", "norm", "fc"]

    def test_sequence_too_long_rejected(self, rng):
        model = build_transformer(max_len=4, rng=rng)
        with pytest.raises(ValueError):
            model(np.zeros((1, 9), dtype=np.int64))

    def test_learns_language_modelling(self, rng):
        model = build_transformer(num_layers=2, vocab_size=16, dim=16,
                                  num_heads=2, rng=rng)
        X, y = make_lm_data(num_samples=64, seq_len=8, vocab_size=16, seed=2)
        trainer = SequentialTrainer(model, CrossEntropyLoss(),
                                    Adam(model.parameters(), lr=0.01))
        batches = [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(4)]
        losses = [trainer.train_epoch(batches) for _ in range(6)]
        assert losses[-1] < 0.7 * losses[0]

    def test_pipelined_training(self, rng):
        model = build_transformer(num_layers=2, vocab_size=16, dim=16,
                                  num_heads=2, rng=rng)
        X, y = make_lm_data(num_samples=64, seq_len=8, vocab_size=16, seed=2)
        batches = [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(4)]
        trainer = PipelineTrainer(
            model, [Stage(0, 2, 1), Stage(2, 5, 1)], CrossEntropyLoss(),
            lambda ps: Adam(ps, lr=0.01),
        )
        losses = [trainer.train_minibatches(batches) for _ in range(6)]
        assert losses[-1] < losses[0]

    def test_partitioner_handles_transformer(self, rng):
        model = build_transformer(num_layers=4, vocab_size=16, dim=16,
                                  num_heads=2, rng=rng)
        profile = profile_model(model, np.zeros((4, 8), dtype=np.int64), 1, 0)
        topo = make_cluster("t", 4, 1, 1e7, 1e7)
        plan = PipeDreamOptimizer(profile, topo).solve()
        assert sum(s.replicas for s in plan.stages) == 4


class TestCausalMasking:
    def test_causal_blocks_future(self, rng):
        """Position t's output must not depend on positions > t."""
        mhsa = MultiHeadSelfAttention(8, 2, causal=True, rng=rng)
        x = rng.standard_normal((1, 5, 8))
        base = mhsa(Tensor(x)).data
        x2 = x.copy()
        x2[0, 4] += 10.0  # perturb the LAST position
        perturbed = mhsa(Tensor(x2)).data
        np.testing.assert_allclose(base[0, :4], perturbed[0, :4], atol=1e-10)
        assert not np.allclose(base[0, 4], perturbed[0, 4])

    def test_non_causal_sees_future(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, causal=False, rng=rng)
        x = rng.standard_normal((1, 5, 8))
        base = mhsa(Tensor(x)).data
        x2 = x.copy()
        x2[0, 4] += 10.0
        perturbed = mhsa(Tensor(x2)).data
        assert not np.allclose(base[0, 0], perturbed[0, 0])

    def test_causal_model_end_to_end(self, rng):
        """The whole causal transformer respects autoregressive ordering."""
        model = build_transformer(num_layers=2, vocab_size=12, dim=8,
                                  num_heads=2, causal=True, rng=rng)
        tokens = rng.integers(0, 12, (1, 6))
        base = model(tokens).data
        tokens2 = tokens.copy()
        tokens2[0, 5] = (tokens2[0, 5] + 1) % 12
        perturbed = model(tokens2).data
        np.testing.assert_allclose(base[0, :5], perturbed[0, :5], atol=1e-10)

    def test_causal_gradcheck(self, rng):
        mhsa = MultiHeadSelfAttention(4, 2, causal=True, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 4)), requires_grad=True)
        assert gradcheck(lambda x: (mhsa(x) ** 2).mean(), [x], atol=1e-4)

    def test_causal_lm_still_learns_markov_chain(self, rng):
        """With honest masking, the LM task remains learnable (the data is
        a low-branching Markov chain, not a copy task)."""
        model = build_transformer(num_layers=2, vocab_size=16, dim=24,
                                  num_heads=2, causal=True, rng=rng)
        X, y = make_lm_data(num_samples=96, seq_len=8, vocab_size=16, seed=4)
        trainer = SequentialTrainer(model, CrossEntropyLoss(),
                                    Adam(model.parameters(), lr=0.01))
        batches = [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(6)]
        losses = [trainer.train_epoch(batches) for _ in range(8)]
        assert losses[-1] < 0.8 * losses[0]
