"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, functional as F
from repro.autodiff.engine import unbroadcast
from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    communication_bytes_per_minibatch,
    evaluate_partition_on_topology,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    OpKind,
    gpipe_schedule,
    one_f_one_b_rr_schedule,
    validate_schedule,
    warmup_count,
)
from repro.core.stashing import WeightStore
from repro.core.topology import make_cluster
from tests.oracles.partition_brute_force import brute_force_partition


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

layer_lists = st.lists(
    st.tuples(
        st.floats(0.1, 10.0),  # compute
        st.integers(1, 10_000),  # activation bytes
        st.integers(0, 10_000),  # weight bytes
    ),
    min_size=2,
    max_size=5,
)


def build_profile(spec):
    layers = [
        LayerProfile(f"l{i}", c, a, w) for i, (c, a, w) in enumerate(spec)
    ]
    return ModelProfile("h", layers, batch_size=1)


stage_configs = st.lists(st.integers(1, 4), min_size=1, max_size=4)


# ----------------------------------------------------------------------
# Partitioner properties
# ----------------------------------------------------------------------

class TestPartitionerProperties:
    @settings(max_examples=25, deadline=None)
    @given(spec=layer_lists, workers=st.integers(2, 4),
           bandwidth=st.floats(10.0, 10_000.0))
    def test_dp_matches_brute_force(self, spec, workers, bandwidth):
        profile = build_profile(spec)
        topo = make_cluster("h", workers, 1, bandwidth, bandwidth)
        result = PipeDreamOptimizer(profile, topo).solve()
        _, best = brute_force_partition(profile, topo)
        assert result.slowest_stage_time == pytest.approx(best)

    @settings(max_examples=25, deadline=None)
    @given(spec=layer_lists, workers=st.integers(1, 4))
    def test_partition_structure_invariants(self, spec, workers):
        profile = build_profile(spec)
        topo = make_cluster("h", workers, 1, 100.0, 100.0)
        result = PipeDreamOptimizer(profile, topo).solve()
        assert result.stages[0].start == 0
        assert result.stages[-1].stop == len(profile)
        for a, b in zip(result.stages, result.stages[1:]):
            assert a.stop == b.start
        assert sum(s.replicas for s in result.stages) == workers
        assert result.slowest_stage_time > 0

    @settings(max_examples=25, deadline=None)
    @given(spec=layer_lists, workers=st.integers(2, 4))
    def test_never_beats_perfect_parallelism(self, spec, workers):
        """The bottleneck can never be better than compute / workers.

        (Note: adding workers CAN hurt — the paper's formulation allocates
        every worker, and forced replication/boundaries have real costs — so
        monotonicity in worker count is deliberately not asserted.)
        """
        profile = build_profile(spec)
        topo = make_cluster("l", workers, 1, 100.0, 100.0)
        result = PipeDreamOptimizer(profile, topo).solve()
        ideal = profile.total_compute_time / workers
        assert result.slowest_stage_time >= ideal - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(spec=layer_lists, workers=st.integers(2, 4),
           bandwidth=st.floats(10.0, 10_000.0))
    def test_reported_cost_matches_evaluation(self, spec, workers, bandwidth):
        """The DP's claimed bottleneck equals evaluating its own plan."""
        profile = build_profile(spec)
        topo = make_cluster("h", workers, 1, bandwidth, bandwidth)
        result = PipeDreamOptimizer(profile, topo).solve()
        evaluated = evaluate_partition_on_topology(profile, result.stages, topo)
        assert result.slowest_stage_time == pytest.approx(evaluated, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(spec=layer_lists)
    def test_comm_volume_nonnegative_and_zero_for_one_worker(self, spec):
        profile = build_profile(spec)
        single = [Stage(0, len(profile), 1)]
        assert communication_bytes_per_minibatch(profile, single) == 0.0


class TestDegenerateInputs:
    """Degenerate profiles give a valid plan; hostile ones one typed
    error at construction — never a misattributed "no feasible partition"
    or a plan priced with negative time."""

    @settings(max_examples=30, deadline=None)
    @given(
        spec=st.lists(
            st.tuples(
                st.floats(0.0, 10.0),  # compute: zero-time layers allowed
                st.integers(0, 10_000),  # zero-byte activations
                st.integers(0, 10_000),  # zero-byte weights
            ),
            min_size=1,  # 1-layer models
            max_size=4,
        ),
        gpus=st.integers(1, 4),
        servers=st.integers(1, 2),  # workers > layers
    )
    def test_degenerate_profiles_plan_cleanly(self, spec, gpus, servers):
        profile = build_profile(spec)
        topo = make_cluster("d", gpus, servers, 100.0, 10.0)
        result = PipeDreamOptimizer(profile, topo).solve()
        assert result.stages[0].start == 0
        assert result.stages[-1].stop == len(profile)
        assert sum(s.replicas for s in result.stages) == gpus * servers
        assert 0.0 <= result.slowest_stage_time < float("inf")

    @settings(max_examples=30, deadline=None)
    @given(
        spec=layer_lists,
        data=st.data(),
        bad=st.sampled_from(
            [float("nan"), float("inf"), -float("inf"), -1e-9, -3]
        ),
        field=st.sampled_from(
            ["compute_time", "activation_bytes", "weight_bytes",
             "forward_time"]
        ),
    )
    def test_non_finite_or_negative_entries_are_rejected(
        self, spec, data, bad, field
    ):
        victim = data.draw(st.integers(0, len(spec) - 1), label="victim")
        layers = []
        with pytest.raises(
            ValueError, match=rf"layer 'l{victim}': {field} must be finite"
        ):
            for i, (c, a, w) in enumerate(spec):
                fields = dict(compute_time=c, activation_bytes=a,
                              weight_bytes=w)
                if i == victim:
                    fields[field] = bad
                layers.append(LayerProfile(f"l{i}", **fields))
        assert len(layers) == victim  # raised while building the victim

    def test_infeasible_message_names_the_binding_constraint(self):
        profile = build_profile([(1.0, 10, 10)] * 3)
        topo = make_cluster("d", 4, 2, 100.0, 10.0)
        with pytest.raises(RuntimeError) as no_limit:
            PipeDreamOptimizer(profile, topo, allow_replication=False).solve()
        assert "allow_replication=False" in str(no_limit.value)
        assert "memory limit" not in str(no_limit.value)
        with pytest.raises(RuntimeError, match="memory_limit_bytes=1"):
            PipeDreamOptimizer(profile, topo, memory_limit_bytes=1.0).solve()


# ----------------------------------------------------------------------
# Schedule properties
# ----------------------------------------------------------------------

class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(config=stage_configs, minibatches=st.integers(1, 20))
    def test_rr_schedules_always_valid(self, config, minibatches):
        stages = [Stage(i, i + 1, r) for i, r in enumerate(config)]
        schedule = one_f_one_b_rr_schedule(stages, minibatches)
        validate_schedule(schedule)

    @settings(max_examples=40, deadline=None)
    @given(config=stage_configs, minibatches=st.integers(1, 20))
    def test_rr_routing_consistency(self, config, minibatches):
        stages = [Stage(i, i + 1, r) for i, r in enumerate(config)]
        schedule = one_f_one_b_rr_schedule(stages, minibatches)
        for s, stage in enumerate(stages):
            for b in range(minibatches):
                worker = schedule.replica_for(s, b)
                ops = schedule.worker_ops[worker]
                assert any(
                    o.kind == OpKind.FORWARD and o.minibatch == b for o in ops
                )
                assert any(
                    o.kind == OpKind.BACKWARD and o.minibatch == b for o in ops
                )

    @settings(max_examples=40, deadline=None)
    @given(config=stage_configs)
    def test_noam_bounds(self, config):
        stages = [Stage(i, i + 1, r) for i, r in enumerate(config)]
        noam = warmup_count(stages, 0)
        workers = sum(config)
        assert 1 <= noam <= workers

    @settings(max_examples=20, deadline=None)
    @given(stages=st.integers(1, 4), batches=st.integers(1, 4),
           micros=st.integers(1, 6))
    def test_gpipe_schedules_always_valid(self, stages, batches, micros):
        schedule = gpipe_schedule(stages, batches, micros)
        validate_schedule(schedule)
        for ops in schedule.worker_ops.values():
            assert sum(o.kind == OpKind.UPDATE for o in ops) == batches


# ----------------------------------------------------------------------
# Weight store properties
# ----------------------------------------------------------------------

class TestStashingProperties:
    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(list(range(6))))
    def test_backward_always_sees_forward_version(self, order):
        """Whatever the backward completion order, versions match stashes."""
        store = WeightStore({"w": np.zeros(2)})
        forward_versions = {}
        for mb in range(6):
            forward_versions[mb] = store.weights_for_forward(mb).version
            store.commit({"w": np.full(2, mb + 1.0)})
        for mb in order:
            assert store.weights_for_backward(mb).version == forward_versions[mb]
        assert store.num_live_versions == 1

    @settings(max_examples=30, deadline=None)
    @given(in_flight=st.integers(1, 10))
    def test_live_versions_bounded_by_in_flight(self, in_flight):
        store = WeightStore({"w": np.zeros(2)})
        for mb in range(in_flight):
            store.weights_for_forward(mb)
            store.commit({"w": np.full(2, mb + 1.0)})
        assert store.num_live_versions <= in_flight + 1


# ----------------------------------------------------------------------
# Autodiff properties
# ----------------------------------------------------------------------

class TestAutodiffProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 4), cols=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_softmax_rows_sum_to_one(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((rows, cols)) * 5)
        np.testing.assert_allclose(F.softmax(x).data.sum(axis=-1), np.ones(rows))

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        extra=st.lists(st.integers(1, 3), min_size=0, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_unbroadcast_inverts_broadcast(self, shape, extra, seed):
        """Summing a broadcast all-ones gradient counts the fan-out."""
        rng = np.random.default_rng(seed)
        target = tuple(shape)
        big = tuple(extra) + target
        grad = np.ones(big)
        out = unbroadcast(grad, target)
        assert out.shape == target
        np.testing.assert_allclose(out, np.prod(extra) * np.ones(target))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 5))
    def test_sum_linearity(self, seed, n):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
        (x.sum() * 2.0).backward()
        np.testing.assert_allclose(x.grad, np.full((n, 3), 2.0))
