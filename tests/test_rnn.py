"""LSTM cell and sequence LSTM."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import LSTM, LSTMCell
from tests.oracles.gradcheck import gradcheck


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        h, (h2, c2) = cell(Tensor(rng.standard_normal((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)
        assert h2.shape == (3, 6) and c2.shape == (3, 6)
        assert h is h2

    def test_param_count(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        assert cell.num_parameters() == 4 * 6 * 4 + 4 * 6 * 6 + 4 * 6

    def test_gradcheck_single_step(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)

        def fn(x):
            out, _ = cell(x, cell.initial_state(2))
            return (out ** 2).sum()

        assert gradcheck(fn, [x], atol=1e-4)

    def test_cell_state_evolves(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        state = cell.initial_state(2)
        _, state1 = cell(Tensor(rng.standard_normal((2, 3))), state)
        _, state2 = cell(Tensor(rng.standard_normal((2, 3))), state1)
        assert not np.allclose(state1[1].data, state2[1].data)

    def test_initial_state_zero(self, rng):
        cell = LSTMCell(3, 4, rng=rng)
        h, c = cell.initial_state(5)
        assert (h.data == 0).all() and (c.data == 0).all()


class TestSequenceLSTM:
    def test_output_shape(self, rng):
        lstm = LSTM(4, 6, rng=rng)
        out = lstm(Tensor(rng.standard_normal((2, 7, 4))))
        assert out.shape == (2, 7, 6)

    def test_gradient_flows_to_weights(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        out = lstm(Tensor(rng.standard_normal((2, 5, 3))))
        (out ** 2).mean().backward()
        assert lstm.cell.weight_ih.grad is not None
        assert lstm.cell.weight_hh.grad is not None
        assert np.abs(lstm.cell.weight_hh.grad).max() > 0

    def test_gradcheck_input(self, rng):
        lstm = LSTM(2, 3, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 2)), requires_grad=True)
        assert gradcheck(lambda x: (lstm(x) ** 2).mean(), [x], atol=1e-4)

    def test_gradcheck_weights(self, rng):
        lstm = LSTM(2, 2, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 2)))
        w = lstm.cell.weight_ih
        assert gradcheck(lambda w: (lstm(x) ** 2).mean(), [w], atol=1e-4)

    def test_deterministic(self, rng):
        lstm = LSTM(3, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 3)))
        np.testing.assert_array_equal(lstm(x).data, lstm(x).data)

    def test_temporal_dependence(self, rng):
        """Later outputs must depend on earlier inputs (recurrence works)."""
        lstm = LSTM(2, 3, rng=rng)
        x = rng.standard_normal((1, 4, 2))
        out1 = lstm(Tensor(x)).data
        x2 = x.copy()
        x2[0, 0, :] += 1.0  # perturb the first timestep
        out2 = lstm(Tensor(x2)).data
        assert not np.allclose(out1[0, -1], out2[0, -1])
