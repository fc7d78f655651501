"""Property-based tests for the comm substrate and deployment plans."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import Network, ring_allreduce
from repro.core.deploy import DeploymentPlan
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.partition import PipeDreamOptimizer
from repro.core.topology import make_cluster


class TestAllReduceProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 6),
        size=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_matches_mean_for_any_shape(self, m, size, seed):
        rng = np.random.default_rng(seed)
        contributions = [{"w": rng.standard_normal(size)} for _ in range(m)]
        results = ring_allreduce(contributions)
        expected = np.mean([c["w"] for c in contributions], axis=0)
        for result in results:
            np.testing.assert_allclose(result["w"], expected, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 6), size=st.integers(1, 60))
    def test_bytes_always_match_closed_form(self, m, size):
        network = Network()
        ring_allreduce([{"w": np.zeros(size)} for _ in range(m)], network)
        assert network.total_bytes == 2 * (m - 1) * size * 8
        assert network.in_flight() == 0

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 5), seed=st.integers(0, 2**16))
    def test_all_participants_agree(self, m, seed):
        rng = np.random.default_rng(seed)
        contributions = [
            {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
            for _ in range(m)
        ]
        results = ring_allreduce(contributions)
        for result in results[1:]:
            for name in ("a", "b"):
                np.testing.assert_array_equal(result[name], results[0][name])

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(1, 5), size=st.integers(1, 30))
    def test_sum_equals_m_times_average(self, m, size):
        contributions = [{"w": np.ones(size) * (i + 1)} for i in range(m)]
        summed = ring_allreduce(contributions, average=False)[0]["w"]
        averaged = ring_allreduce(contributions, average=True)[0]["w"]
        np.testing.assert_allclose(summed, m * averaged, atol=1e-9)


class TestDeployProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n_layers=st.integers(2, 5),
        workers=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_plan_roundtrip_and_annotations(self, n_layers, workers, seed):
        rng = np.random.default_rng(seed)
        layers = [
            LayerProfile(f"l{i}", float(rng.uniform(0.5, 3.0)),
                         int(rng.integers(1, 500)), int(rng.integers(0, 500)))
            for i in range(n_layers)
        ]
        profile = ModelProfile("h", layers, batch_size=1)
        topology = make_cluster("h", workers, 1, 100.0, 100.0)
        result = PipeDreamOptimizer(profile, topology).solve()
        plan = DeploymentPlan.from_partition(result)
        restored = DeploymentPlan.from_json(plan.to_json())
        assert restored.stages == plan.stages
        # Every layer annotated with a stage containing it.
        for annotation in restored.annotated_layers():
            stage = restored.stages[annotation["stage"]]
            assert stage.start <= annotation["index"] < stage.stop
        # Worker ids are contiguous and complete.
        assert [a.worker for a in restored.assignments] == list(range(workers))
