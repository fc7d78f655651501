"""Placement, link bandwidths, and all_reduce cost model."""

import pytest

from repro.comm.bucketing import gradient_buckets
from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import cluster_1080ti, cluster_a, cluster_c, make_cluster
from repro.profiler import analytic_profile
from repro.sim.network import (
    Placement,
    allreduce_time,
    stage_sync_seconds,
    stage_terms,
)


@pytest.fixture
def placement():
    # 2 servers x 4 GPUs; intra 100 B/s, inter 10 B/s.
    return Placement(make_cluster("t", 4, 2, 100.0, 10.0))


class TestPlacement:
    def test_coordinates_pack_innermost_first(self, placement):
        assert placement.coordinates(0) == (0, 0)
        assert placement.coordinates(3) == (3, 0)
        assert placement.coordinates(4) == (0, 1)
        assert placement.coordinates(7) == (3, 1)

    def test_intra_server_bandwidth(self, placement):
        assert placement.link_bandwidth(0, 3) == 100.0

    def test_inter_server_bandwidth(self, placement):
        assert placement.link_bandwidth(0, 4) == 10.0
        assert placement.link_bandwidth(3, 4) == 10.0

    def test_self_link_infinite(self, placement):
        assert placement.link_bandwidth(2, 2) == float("inf")


class TestAllReduce:
    def test_single_worker_free(self, placement):
        assert allreduce_time(placement, [0], 1000.0) == 0.0

    def test_intra_server_ring(self, placement):
        # 4 workers, one server: 2*(3/4)*bytes / 100
        t = allreduce_time(placement, [0, 1, 2, 3], 400.0)
        assert t == pytest.approx(2 * 0.75 * 400.0 / 100.0)

    def test_cross_server_hierarchical(self, placement):
        # 8 workers over 2 servers: intra ring of 4 + inter ring of 2.
        t = allreduce_time(placement, list(range(8)), 400.0)
        expected = 2 * 0.75 * 400 / 100 + 2 * 0.5 * 400 / 10
        assert t == pytest.approx(expected)

    def test_two_workers_across_servers(self, placement):
        t = allreduce_time(placement, [0, 4], 100.0)
        assert t == pytest.approx(2 * 0.5 * 100 / 10)

    def test_more_workers_cost_more_over_slow_links(self, placement):
        t4 = allreduce_time(placement, [0, 1, 2, 3], 400.0)
        t8 = allreduce_time(placement, list(range(8)), 400.0)
        assert t8 > t4


# conv / lstm / fc / other / fc: weights 300 + 200 (deferred) + 120 + 8 + 40;
# the shardable (conv, fc) share is 460.
KERNEL_PROFILE = ModelProfile("k", [
    LayerProfile("conv", 1.0, 64, 300, kind="conv"),
    LayerProfile("lstm", 2.0, 32, 200, kind="lstm"),
    LayerProfile("fc1", 1.5, 16, 120, kind="fc"),
    LayerProfile("norm", 0.5, 16, 8),
    LayerProfile("fc2", 1.0, 8, 40, kind="fc"),
], batch_size=4)


@pytest.fixture
def latency_placement():
    # The fixture's cluster plus a per-level collective latency, so every
    # collective a term sums shows up in it.
    return Placement(make_cluster("t", 4, 2, 100.0, 10.0,
                                  intra_allreduce_latency=0.5,
                                  inter_allreduce_latency=2.0))


def one_stage_terms(placement, profile, stage, leaders, bucket_bytes=None):
    """The :func:`stage_terms` row of one stage."""
    [terms] = stage_terms(placement, profile, [stage], [leaders], bucket_bytes)
    return terms


class TestStageCollectives:
    """The collective terms of the one table every pricing stack reads,
    against hand-summed ``allreduce_time`` calls."""

    def test_contiguous_ring(self, latency_placement):
        p = latency_placement
        got = one_stage_terms(p, KERNEL_PROFILE, Stage(0, 5, 4),
                              [0, 1, 2, 3])
        assert got.tp_out == 0.0 and got.tp_in == 0.0
        assert got.stream == allreduce_time(p, [0, 1, 2, 3], 668 - 200)
        assert got.deferred == allreduce_time(p, [0, 1, 2, 3], 200)
        assert got.buckets == ()
        assert stage_sync_seconds(p, KERNEL_PROFILE, Stage(0, 5, 4),
                                  [0, 1, 2, 3]) == allreduce_time(
            p, [0, 1, 2, 3], 668)

    def test_tp_strided_stage_straddles_a_machine(self, latency_placement):
        # Stage 1 of [Stage(0, 1, 1), Stage(1, 5, 3, tp_degree=2)]: its
        # replicas are the tp groups {1, 2}, {3, 4} and {5, 6}; {3, 4}
        # crosses the server boundary at id 4.
        p = latency_placement
        stage = Stage(1, 5, 3, tp_degree=2)
        got = one_stage_terms(p, KERNEL_PROFILE, stage, [1, 3, 5])
        groups = ([1, 2], [3, 4], [5, 6])
        assert got.tp_out == max(allreduce_time(p, g, 8) for g in groups)
        assert got.tp_in == max(allreduce_time(p, g, 64) for g in groups)
        assert got.tp_out == allreduce_time(p, [3, 4], 8)
        # (368 - 200) - 160 + 160 / 2: the lstm weights stay whole.
        assert got.stream == allreduce_time(p, [1, 3, 5], 168 - 160 + 80.0)
        assert got.deferred == allreduce_time(p, [1, 3, 5], 200)
        assert stage_sync_seconds(p, KERNEL_PROFILE, stage, [1, 3, 5]) == (
            allreduce_time(p, [1, 3, 5], 368 - 160 + 80.0))

    def test_bucketed_replicated_stage(self, latency_placement):
        p = latency_placement
        leaders = [2, 3, 4, 5]
        got = one_stage_terms(p, KERNEL_PROFILE, Stage(0, 5, 4), leaders,
                              bucket_bytes=150)
        # Backward order, lstm left out: [fc2 + norm + fc1] = 168 > 150,
        # so the buckets are [fc2, norm] = 48, [fc1] = 120, [conv] = 300.
        expected = [allreduce_time(p, leaders, payload)
                    for payload in (48, 120, 300)]
        assert [seconds for seconds, _ in got.buckets] == expected
        assert [fraction for _, fraction in got.buckets] == [
            b.ready_fraction
            for b in gradient_buckets(KERNEL_PROFILE, 0, 5, 150)]
        assert got.stream == expected[0] + expected[1] + expected[2]
        assert got.deferred == allreduce_time(p, leaders, 200)

    def test_tp_with_buckets_is_rejected(self, placement):
        with pytest.raises(ValueError, match="bucket"):
            one_stage_terms(placement, KERNEL_PROFILE,
                            Stage(0, 5, 1, tp_degree=2), [0],
                            bucket_bytes=150)


class TestStageComputeTerms:
    """The compute side of the one table, and the DP planes pinned to it."""

    def test_tp_sharding_and_replay(self, placement):
        # Shardable conv + fc1 + fc2 (compute 3.5, default backward 2/3 of
        # it) divide by 2; lstm + norm (2.5) stay whole.
        plain, checkpointed = stage_terms(
            placement, KERNEL_PROFILE,
            [Stage(0, 5, 1, tp_degree=2), Stage(0, 5, 1, tp_degree=2,
                                                recompute=True)],
            [[0], [0]])
        assert plain.compute == pytest.approx(2.5 + 3.5 / 2)
        assert plain.backward == pytest.approx((2.5 + 3.5 / 2) * 2 / 3)
        assert plain.forward == plain.compute - plain.backward
        assert plain.replay == 0.0
        assert checkpointed[:3] == plain[:3]
        assert checkpointed.replay == checkpointed.forward
        assert plain.out_bytes == 8

    @pytest.mark.parametrize(
        "topology", [cluster_a(4), cluster_c(4), cluster_1080ti(4)],
        ids=["cluster_a", "cluster_c", "cluster_1080ti"])
    @pytest.mark.parametrize("model", ["vgg16", "resnet50", "alexnet",
                                       "gnmt16", "gnmt8", "awd-lm", "s2vt"])
    def test_dp_planes_equal_stage_terms(self, model, topology):
        """Both DPs' per-span compute planes (``_span_tables().sharded``)
        are the table's ``compute`` and ``compute + replay``, bitwise, for
        every span at every tp degree, at ``compute_scale`` 1.0, 0.5 and
        0.4: both divide the raw span sums by the scale."""
        profile = analytic_profile(model)
        degrees = (1, 2, 4)
        spans = PipeDreamOptimizer(
            profile, topology, tp_degrees=degrees)._span_tables()
        placement = Placement(topology)
        for t in degrees:
            stages = [Stage(i, j + 1, 1, recompute=True, tp_degree=t)
                      for i, j in zip(*spans.tri)]
            terms = stage_terms(placement, profile, stages,
                                [[0]] * len(stages))
            plain, checkpointed = spans.sharded[t].tolist()
            assert plain == [x.compute for x in terms]
            assert checkpointed == [x.compute + x.replay for x in terms]
