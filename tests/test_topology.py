"""Hierarchical topology model (Figure 7, Table 2)."""

import pytest

from repro.core.partition import PipeDreamOptimizer
from repro.core.topology import (
    CLUSTER_A,
    CLUSTER_B,
    CLUSTER_C,
    GBPS,
    GBYTES,
    MAX_WORKERS,
    Topology,
    TopologyLevel,
    cluster_1080ti,
    cluster_a,
    make_cluster,
)
from repro.profiler import analytic_profile


class TestTopology:
    def test_total_workers(self, two_level):
        assert two_level.total_workers == 4

    def test_bandwidth_indexing(self, two_level):
        assert two_level.bandwidth(1) == 100.0
        assert two_level.bandwidth(2) == 10.0

    def test_flat_uses_slowest_link(self, two_level):
        flat = two_level.flat()
        assert flat.num_levels == 1
        assert flat.levels[0].count == 4
        assert flat.levels[0].bandwidth == 10.0

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", [])

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            TopologyLevel(0, 1.0)
        with pytest.raises(ValueError):
            TopologyLevel(2, 0.0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None])
    def test_level_count_must_be_an_int(self, count):
        with pytest.raises(ValueError, match="level count must be an int"):
            TopologyLevel(count, 1.0)

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_subset_refuses_non_int_counts(self, workers):
        """``subset(2.5)`` used to build a level of 2.5 workers and
        ``subset(True)`` a cluster named ``'Cluster-A-Truew'``."""
        with pytest.raises(ValueError, match="level count must be an int"):
            cluster_a(2).subset(workers)

    def test_solve_refuses_a_bool_worker_count(self):
        """``solve(True)`` used to raise IndexError from the planner."""
        optimizer = PipeDreamOptimizer(analytic_profile("vgg16"), cluster_a(1))
        with pytest.raises(ValueError, match="level count must be an int"):
            optimizer.solve(True)

    @pytest.mark.parametrize("num_servers", [0, -2])
    def test_make_cluster_rejects_no_servers(self, num_servers):
        """``num_servers <= 0`` used to build a silent one-server cluster."""
        with pytest.raises(ValueError, match="num_servers"):
            make_cluster("t", 4, num_servers, 100.0, 10.0)
        with pytest.raises(ValueError, match="num_servers"):
            cluster_a(num_servers)
        assert make_cluster("t", 4, 1, 100.0, 10.0).total_workers == 4


class TestSubset:
    def test_subset_within_server(self, two_level):
        sub = two_level.subset(2)
        assert sub.total_workers == 2
        assert sub.num_levels == 1  # trailing singleton level trimmed

    def test_subset_full(self, two_level):
        assert two_level.subset(4).total_workers == 4

    def test_subset_fills_servers_first(self):
        topo = make_cluster("t", 4, 4, 100.0, 10.0)
        sub = topo.subset(8)
        assert sub.levels[0].count == 4
        assert sub.levels[1].count == 2

    def test_subset_uneven_rejected(self):
        topo = make_cluster("t", 4, 4, 100.0, 10.0)
        with pytest.raises(ValueError):
            topo.subset(6)

    def test_subset_too_many_rejected(self, two_level):
        with pytest.raises(ValueError):
            two_level.subset(5)

    def test_subset_one_worker(self, two_level):
        assert two_level.subset(1).total_workers == 1


class TestPaperClusters:
    def test_cluster_a_shape(self):
        assert CLUSTER_A.levels[0].count == 4  # 4 V100s per server
        assert CLUSTER_A.levels[1].bandwidth == 10 * GBPS

    def test_cluster_b_shape(self):
        assert CLUSTER_B.levels[0].count == 8
        assert CLUSTER_B.levels[0].bandwidth == 30 * GBYTES  # NVLink
        assert CLUSTER_B.levels[1].bandwidth == 25 * GBPS

    def test_cluster_c_single_gpu_servers(self):
        assert CLUSTER_C.levels[0].count == 1
        assert CLUSTER_C.compute_scale == 0.5  # Titan X slower than V100

    def test_cluster_1080ti(self):
        topo = cluster_1080ti(2)
        assert topo.total_workers == 16
        assert topo.compute_scale < 1.0

    def test_intra_faster_than_inter(self):
        for topo in (CLUSTER_A, CLUSTER_B):
            assert topo.levels[0].bandwidth > topo.levels[-1].bandwidth

    def test_scaling_cluster_a(self):
        assert cluster_a(8).total_workers == 32


class TestRejectedTopologies:
    @pytest.mark.parametrize("scale", [0, -1.0, float("nan"), float("inf")])
    def test_compute_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="compute_scale must be finite"):
            Topology("t", [TopologyLevel(4, 1e9)], compute_scale=scale)

    @pytest.mark.parametrize("field, value", [
        ("bandwidth", float("nan")), ("allreduce_latency", float("nan"))])
    def test_nan_level_fields_are_refused(self, field, value):
        level = {"count": 4, "bandwidth": 1e9, field: value}
        with pytest.raises(ValueError, match=field.split("_")[-1]):
            TopologyLevel(**level)

    def test_worker_ceiling(self):
        assert make_cluster("x", 8, MAX_WORKERS // 8, 1e9, 1e9) \
            .total_workers == MAX_WORKERS
        with pytest.raises(ValueError, match=f"{MAX_WORKERS + 8} workers"):
            make_cluster("x", 8, MAX_WORKERS // 8 + 1, 1e9, 1e9)
