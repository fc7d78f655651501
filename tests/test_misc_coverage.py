"""Coverage for smaller API surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core.schedule import OpKind, one_f_one_b_schedule
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import make_cluster
from repro.nn import Linear
from repro.sim import simulate


class TestTensorMisc:
    def test_astype_forward_and_backward(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        out = x.astype(np.float32)
        assert out.dtype == np.float32
        (out.sum()).backward()
        assert x.grad.dtype == np.float64

    def test_matmul_vector_cases(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        out = a @ b
        assert out.shape == ()
        out.backward()
        np.testing.assert_allclose(a.grad, b.data)

    def test_matrix_vector(self, rng):
        m = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        out = (m @ v).sum()
        out.backward()
        assert m.grad.shape == (3, 4)
        assert v.grad.shape == (4,)

    def test_transpose_default_reverses(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)


class TestScheduleMisc:
    def test_steady_state_pattern_helper(self):
        schedule = one_f_one_b_schedule(3, 6)
        kinds = [op.kind for op in schedule.worker_ops[0]
                 if op.kind != OpKind.UPDATE]
        assert kinds[3:5] == [OpKind.BACKWARD, OpKind.FORWARD]

    def test_ops_of_kind(self):
        schedule = one_f_one_b_schedule(2, 4)
        kinds = [op.kind for op in schedule.worker_ops[0]]
        assert kinds.count(OpKind.FORWARD) == 4

    def test_num_workers_property(self):
        schedule = one_f_one_b_schedule(3, 4)
        assert schedule.num_workers == 3


class TestSimMisc:
    def test_worker_timeline_filters(self):
        layers = [LayerProfile(f"l{i}", 3.0, 0, 0) for i in range(2)]
        profile = ModelProfile("m", layers, batch_size=1)
        topo = make_cluster("t", 2, 1, 1e9, 1e9)
        sim = simulate(one_f_one_b_schedule(2, 4), profile, topo)
        timeline = sim.worker_timeline(1)
        assert timeline
        assert all(r.worker == 1 for r in timeline)

    def test_throughput_property(self):
        layers = [LayerProfile("l", 3.0, 0, 0)]
        profile = ModelProfile("m", layers, batch_size=1)
        topo = make_cluster("t", 1, 1, 1e9, 1e9)
        sim = simulate(one_f_one_b_schedule(1, 4), profile, topo)
        assert sim.throughput == pytest.approx(4 / sim.total_time)


class TestModuleMisc:
    def test_named_buffers_traversal(self):
        from repro.nn import BatchNorm2d, Sequential

        seq = Sequential(BatchNorm2d(3))
        names = [n for n, _ in seq.named_buffers()]
        assert names == ["0.running_mean", "0.running_var"]

    def test_repr_smoke(self, rng):
        assert "Linear" in repr(Linear(2, 3, rng=rng))
