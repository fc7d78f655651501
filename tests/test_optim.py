"""Optimizers."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Linear
from repro.nn.module import Parameter
from repro.optim import LARS, SGD, Adam
from repro.optim.optimizer import Optimizer


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float64))


class TestSGD:
    def test_basic_update(self):
        p = make_param([1.0, 2.0])
        opt = SGD([p], lr=0.5)
        p.grad = np.array([1.0, -1.0])
        opt.step()
        np.testing.assert_allclose(p.data, [0.5, 2.5])

    def test_explicit_grads_override(self):
        p = make_param([1.0])
        opt = SGD([p], lr=1.0)
        p.grad = np.array([100.0])
        opt.step([np.array([1.0])])
        np.testing.assert_allclose(p.data, [0.0])

    def test_momentum_accumulates(self):
        p = make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            opt.step([np.array([1.0])])
        # v1 = 1, v2 = 1.9 -> total = 2.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_weight_decay(self):
        p = make_param([2.0])
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.step([np.array([0.0])])
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 1.0])

    def test_none_grad_skipped(self):
        p = make_param([1.0])
        SGD([p], lr=1.0).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_in_place_mutates_array(self):
        p = make_param([1.0])
        view = p.data
        opt = SGD([p], lr=1.0, in_place=True)
        opt.step([np.array([1.0])])
        np.testing.assert_allclose(view, [0.0])  # same array mutated

    def test_rebinding_preserves_old_array(self):
        p = make_param([1.0])
        view = p.data
        SGD([p], lr=1.0).step([np.array([1.0])])
        np.testing.assert_allclose(view, [1.0])  # old array untouched

    def test_step_count(self):
        opt = SGD([make_param([0.0])], lr=1.0)
        opt.step([np.array([0.0])])
        opt.step([np.array([0.0])])
        assert opt.step_count == 2

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_magnitude(self):
        p = make_param([0.0])
        opt = Adam([p], lr=0.1)
        opt.step([np.array([3.0])])
        # Bias correction makes the first step ~= lr regardless of grad scale.
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-5)

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            opt.step([2 * p.data])  # grad of x^2
        assert abs(p.data[0]) < 0.1

    def test_per_param_state(self):
        p1, p2 = make_param([0.0]), make_param([0.0])
        opt = Adam([p1, p2], lr=0.1)
        opt.step([np.array([1.0]), np.array([-1.0])])
        assert p1.data[0] < 0 < p2.data[0]

    def test_weight_decay(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        opt.step([np.array([0.0])])
        assert p.data[0] < 1.0


class TestLARS:
    def test_trust_ratio_scales_update(self):
        p = make_param([1000.0])
        opt = LARS([p], lr=1.0, momentum=0.0, trust_coefficient=0.001)
        opt.step([np.array([1.0])])
        # local_lr = 0.001 * 1000 / 1 = 1 -> step = lr * 1 * grad = 1
        np.testing.assert_allclose(p.data, [999.0])

    def test_zero_weight_norm_falls_back(self):
        p = make_param([0.0])
        opt = LARS([p], lr=0.1, momentum=0.0)
        opt.step([np.array([1.0])])
        np.testing.assert_allclose(p.data, [-0.1])

    def test_momentum(self):
        p = make_param([10.0])
        opt = LARS([p], lr=1.0, momentum=0.9)
        opt.step([np.array([1.0])])
        first = 10.0 - p.data[0]
        opt.step([np.array([1.0])])
        second = (10.0 - first) - p.data[0]
        assert second > first  # velocity builds up

    def test_trains_linear_model(self, rng):
        layer = Linear(4, 2, rng=rng)
        opt = LARS(layer.parameters(), lr=0.1, momentum=0.9)
        x = Tensor(rng.standard_normal((16, 4)))
        target = rng.standard_normal((16, 2))
        first_loss = None
        for _ in range(50):
            layer.zero_grad()
            diff = layer(x) - Tensor(target)
            loss = (diff * diff).mean()
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first_loss
