"""Gradient checks and shape semantics for every primitive op."""

import numpy as np
import pytest

from repro.autodiff import Tensor, functional as F
from repro.autodiff.engine import concatenate, stack
from tests.oracles.gradcheck import gradcheck


def t(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestElementwiseBinary:
    def test_add_gradcheck(self, rng):
        a, b = t(rng, 3, 4), t(rng, 3, 4)
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast_rows(self, rng):
        a, b = t(rng, 3, 4), t(rng, 4)
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast_scalar(self, rng):
        a = t(rng, 3, 4)
        out = a + 2.0
        assert out.shape == (3, 4)
        assert gradcheck(lambda a: (a + 2.0).sum(), [a])

    def test_sub_gradcheck(self, rng):
        a, b = t(rng, 2, 5), t(rng, 2, 5)
        assert gradcheck(lambda a, b: (a - b * 2).sum(), [a, b])

    def test_rsub(self, rng):
        a = t(rng, 3)
        out = 1.0 - a
        np.testing.assert_allclose(out.data, 1.0 - a.data)
        assert gradcheck(lambda a: (1.0 - a).sum(), [a])

    def test_mul_gradcheck(self, rng):
        a, b = t(rng, 4, 2), t(rng, 4, 2)
        assert gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_mul_broadcast_column(self, rng):
        a, b = t(rng, 4, 3), t(rng, 4, 1)
        assert gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_div_gradcheck(self, rng):
        a = t(rng, 3, 3)
        b = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        assert gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_rdiv(self, rng):
        b = Tensor(rng.standard_normal(4) + 3.0, requires_grad=True)
        assert gradcheck(lambda b: (1.0 / b).sum(), [b])


class TestMatMul:
    def test_2d_gradcheck(self, rng):
        a, b = t(rng, 3, 4), t(rng, 4, 5)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched_gradcheck(self, rng):
        a, b = t(rng, 2, 3, 4), t(rng, 2, 4, 5)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_broadcast_batched(self, rng):
        a, b = t(rng, 2, 3, 4), t(rng, 4, 5)
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_shapes(self, rng):
        a, b = t(rng, 3, 4), t(rng, 4, 5)
        assert (a @ b).shape == (3, 5)


class TestUnary:
    @pytest.mark.parametrize("fn", [
        lambda x: x.tanh(),
        lambda x: x.sigmoid(),
        lambda x: x.exp(),
        lambda x: x.relu(),
        lambda x: x.abs(),
        lambda x: -x,
        lambda x: x ** 3,
    ])
    def test_gradcheck(self, rng, fn):
        # Offset away from relu/abs kinks for finite differences.
        x = Tensor(rng.standard_normal((3, 4)) + 0.2, requires_grad=True)
        assert gradcheck(lambda x: fn(x).sum(), [x])

    def test_log_gradcheck(self, rng):
        x = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        assert gradcheck(lambda x: x.log().sum(), [x])

    def test_sqrt(self, rng):
        x = Tensor(rng.random(5) + 1.0, requires_grad=True)
        np.testing.assert_allclose(x.sqrt().data, np.sqrt(x.data))

    def test_clip_gradcheck(self, rng):
        x = Tensor(rng.standard_normal(20) * 2, requires_grad=True)
        assert gradcheck(lambda x: x.clip(-1.0, 1.0).sum(), [x])

    def test_relu_zeroes_negatives(self, rng):
        x = Tensor(np.array([-1.0, 0.5, -0.2, 2.0]))
        np.testing.assert_array_equal(x.relu().data, [0.0, 0.5, 0.0, 2.0])


class TestReductions:
    def test_sum_all(self, rng):
        x = t(rng, 3, 4)
        assert gradcheck(lambda x: x.sum(), [x])

    def test_sum_axis(self, rng):
        x = t(rng, 3, 4)
        assert gradcheck(lambda x: (x.sum(axis=0) ** 2).sum(), [x])

    def test_sum_keepdims_shape(self, rng):
        x = t(rng, 3, 4)
        assert x.sum(axis=1, keepdims=True).shape == (3, 1)

    def test_mean_all(self, rng):
        x = t(rng, 5, 2)
        assert gradcheck(lambda x: x.mean(), [x])

    def test_mean_multi_axis(self, rng):
        x = t(rng, 2, 3, 4)
        assert gradcheck(lambda x: (x.mean(axis=(1, 2)) ** 2).sum(), [x])

    def test_max_all(self, rng):
        x = t(rng, 4, 4)
        assert gradcheck(lambda x: x.max(), [x])

    def test_max_axis(self, rng):
        x = t(rng, 4, 4)
        assert gradcheck(lambda x: (x.max(axis=1) ** 2).sum(), [x])

    def test_max_value(self, rng):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(x.max(axis=0).data, [3.0, 5.0])


class TestShapes:
    def test_reshape_gradcheck(self, rng):
        x = t(rng, 2, 6)
        assert gradcheck(lambda x: (x.reshape(3, 4) ** 2).sum(), [x])

    def test_reshape_minus_one(self, rng):
        x = t(rng, 2, 6)
        assert x.reshape(4, -1).shape == (4, 3)

    def test_transpose_gradcheck(self, rng):
        x = t(rng, 2, 3, 4)
        assert gradcheck(lambda x: (x.transpose(2, 0, 1) ** 2).sum(), [x])

    def test_T(self, rng):
        x = t(rng, 2, 5)
        assert x.T.shape == (5, 2)

    def test_getitem_gradcheck(self, rng):
        x = t(rng, 5, 4)
        assert gradcheck(lambda x: (x[1:3, :2] ** 2).sum(), [x])

    def test_getitem_repeated_index_accumulates(self, rng):
        x = Tensor(np.ones(3), requires_grad=True)
        idx = np.array([0, 0, 1])
        out = x[idx].sum()
        out.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])

    def test_stack_gradcheck(self, rng):
        a, b = t(rng, 3), t(rng, 3)
        assert gradcheck(lambda a, b: (stack([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concat_gradcheck(self, rng):
        a, b = t(rng, 2, 3), t(rng, 4, 3)
        assert gradcheck(lambda a, b: (concatenate([a, b], axis=0) ** 2).sum(), [a, b])

    def test_stack_shape(self, rng):
        parts = [t(rng, 2, 3) for _ in range(4)]
        assert stack(parts, axis=1).shape == (2, 4, 3)


class TestSoftmaxFamily:
    def test_softmax_gradcheck(self, rng):
        x = t(rng, 4, 6)
        assert gradcheck(lambda x: (F.softmax(x) * F.softmax(x)).sum(), [x])

    def test_softmax_sums_to_one(self, rng):
        x = t(rng, 4, 6)
        np.testing.assert_allclose(F.softmax(x).data.sum(axis=-1), np.ones(4))

    def test_log_softmax_gradcheck(self, rng):
        x = t(rng, 3, 5)
        assert gradcheck(lambda x: (F.log_softmax(x) ** 2).sum(), [x])

    def test_log_softmax_stable_with_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.log_softmax(x)
        assert np.isfinite(out.data).all()

    def test_cross_entropy_gradcheck(self, rng):
        logits = t(rng, 6, 4)
        targets = rng.integers(0, 4, 6)
        assert gradcheck(lambda l: F.cross_entropy(l, targets), [logits])

    def test_cross_entropy_sequence_targets(self, rng):
        logits = t(rng, 2, 5, 4)
        targets = rng.integers(0, 4, (2, 5))
        assert gradcheck(lambda l: F.cross_entropy(l, targets), [logits])

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_nll_loss_matches_cross_entropy(self, rng):
        logits = t(rng, 6, 4)
        targets = rng.integers(0, 4, 6)
        ce = F.cross_entropy(logits, targets).item()
        nll = F.nll_loss(F.log_softmax(logits), targets).item()
        assert abs(ce - nll) < 1e-12


class TestEmbeddingDropout:
    def test_embedding_gradcheck(self, rng):
        weight = t(rng, 7, 3)
        idx = rng.integers(0, 7, (2, 4))
        assert gradcheck(lambda w: (F.embedding(w, idx) ** 2).sum(), [weight])

    def test_embedding_repeated_rows_accumulate(self, rng):
        weight = Tensor(np.ones((3, 2)), requires_grad=True)
        out = F.embedding(weight, np.array([1, 1, 2])).sum()
        out.backward()
        np.testing.assert_array_equal(weight.grad, [[0, 0], [2, 2], [1, 1]])

    def test_dropout_training_scales(self, rng):
        x = Tensor(np.ones((1000,)), requires_grad=True)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.3 < (out.data > 0).mean() < 0.7

    def test_dropout_eval_identity(self, rng):
        x = t(rng, 10)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_mse_gradcheck(self, rng):
        pred, target = t(rng, 4, 3), t(rng, 4, 3)
        assert gradcheck(lambda p: F.mse_loss(p, target), [pred])
