"""Layer library: behaviour, registration, serialization, modes."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Dropout,
    Embedding,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    MSELoss,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from tests.oracles.gradcheck import gradcheck


class TestModule:
    def test_parameter_registration(self, rng):
        layer = Linear(4, 3, rng=rng)
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_parameter_names(self, rng):
        seq = Sequential(Linear(4, 3, rng=rng), ReLU(), Linear(3, 2, rng=rng))
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_parameter_bytes(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.parameter_bytes() == 12 * 8  # float64

    def test_state_dict_roundtrip(self, rng):
        a = Linear(4, 3, rng=rng)
        b = Linear(4, 3, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_is_deep_copy(self, rng):
        layer = Linear(2, 2, rng=rng)
        state = layer.state_dict()
        state["weight"][0, 0] = 123.0
        assert layer.weight.data[0, 0] != 123.0

    def test_load_state_dict_shape_mismatch(self, rng):
        a, b = Linear(4, 3, rng=rng), Linear(4, 2, rng=rng)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_load_state_dict_unknown_key(self, rng):
        layer = Linear(2, 2, rng=rng)
        with pytest.raises(KeyError):
            layer.load_state_dict({"nope": np.zeros(1)})

    def test_train_eval_propagates(self, rng):
        seq = Sequential(Dropout(0.5), Sequential(Dropout(0.5)))
        seq.eval()
        assert all(not m.training for _, m in seq.named_modules())
        seq.train()
        assert all(m.training for _, m in seq.named_modules())

    def test_zero_grad(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.standard_normal((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestSequential:
    def test_len_iter_getitem(self, rng):
        seq = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        assert len(list(seq)) == 3

    def test_slice_shares_parameters(self, rng):
        seq = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        head = seq[:1]
        assert head[0].weight is seq[0].weight

    def test_append(self, rng):
        seq = Sequential(Linear(2, 2, rng=rng))
        seq.append(ReLU())
        assert len(seq) == 2

    def test_forward_chains(self, rng):
        seq = Sequential(Linear(3, 3, rng=rng), ReLU())
        out = seq(Tensor(rng.standard_normal((2, 3))))
        assert out.shape == (2, 3)
        assert (out.data >= 0).all()


class TestLinear:
    def test_output_shape(self, rng):
        assert Linear(5, 7, rng=rng)(Tensor(rng.standard_normal((3, 5)))).shape == (3, 7)

    def test_gradcheck(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        assert gradcheck(lambda x: (layer(x) ** 2).sum(), [x])

    def test_sequence_input(self, rng):
        layer = Linear(3, 2, rng=rng)
        out = layer(Tensor(rng.standard_normal((4, 5, 3))))
        assert out.shape == (4, 5, 2)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestConvLayer:
    def test_shape(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=rng)
        assert layer(Tensor(rng.standard_normal((2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    def test_downsampling(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        assert layer(Tensor(rng.standard_normal((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_param_count(self, rng):
        layer = Conv2d(3, 8, 3, rng=rng)
        assert layer.num_parameters() == 8 * 3 * 9 + 8


class TestBatchNorm:
    def test_normalizes_training_batch(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 3, 3)) * 5 + 2)
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((16, 2, 4, 4)) + 3.0)
        bn(x)
        assert (bn._buffers["running_mean"] > 0).all()

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((16, 2, 4, 4)) + 3.0)
        for _ in range(50):
            bn(x)
        bn.eval()
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=0.2)

    def test_gradcheck(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((4, 2, 2, 2)), requires_grad=True)
        assert gradcheck(lambda x: (bn(x) ** 2).sum(), [x], atol=1e-4)

    def test_state_dict_includes_buffers(self):
        bn = BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state


class TestEmbeddingAndMisc:
    def test_embedding_shape(self, rng):
        emb = Embedding(10, 4, rng=rng)
        assert emb(np.array([[1, 2], [3, 4]])).shape == (2, 2, 4)

    def test_embedding_accepts_tensor_indices(self, rng):
        emb = Embedding(10, 4, rng=rng)
        idx = Tensor(np.array([1, 2, 3]))
        assert emb(idx).shape == (3, 4)

    def test_flatten(self, rng):
        assert Flatten()(Tensor(rng.standard_normal((2, 3, 4)))).shape == (2, 12)

    def test_identity(self, rng):
        x = Tensor(rng.standard_normal(3))
        assert Identity()(x) is x

    def test_activations(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        assert (Sigmoid()(x).data > 0).all()
        assert (np.abs(Tanh()(x).data) <= 1).all()

    def test_dropout_respects_eval(self, rng):
        drop = Dropout(0.9, rng=rng)
        drop.eval()
        x = Tensor(np.ones(100))
        np.testing.assert_array_equal(drop(x).data, np.ones(100))

    def test_maxpool_module(self, rng):
        pool = MaxPool2d(2)
        assert pool(Tensor(rng.standard_normal((1, 2, 4, 4)))).shape == (1, 2, 2, 2)


class TestLosses:
    def test_cross_entropy_module(self, rng):
        loss = CrossEntropyLoss()(Tensor(rng.standard_normal((4, 3))), np.array([0, 1, 2, 0]))
        assert loss.item() > 0

    def test_cross_entropy_accepts_tensor_targets(self, rng):
        targets = Tensor(np.array([0, 1]))
        loss = CrossEntropyLoss()(Tensor(rng.standard_normal((2, 3))), targets)
        assert np.isfinite(loss.item())

    def test_mse_module(self, rng):
        pred = Tensor(rng.standard_normal((3, 2)))
        assert MSELoss()(pred, pred.data).item() < 1e-12
