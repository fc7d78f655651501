"""A bucket size on a latency-free topology shares the unbucketed tables.

``PipeDreamOptimizer`` keys ``bucket_bytes`` as ``None`` in its table
namespace when no level of its topology has a collective latency, so a
shared context (and a sweep's bucket axis) builds each level table once.
That is only sound if the DPs cannot feel the bucket size there: they read
it only through the α terms of ``_sync_terms``, which α = 0 skips.  The
proof obligation is tested as one: every level table and every refined-DP
row of a bucketed solve equals the unbucketed solve's, bitwise, on drawn
profiles and topologies, free and capped.  Then the boundary (α > 0 keeps
the namespaces apart) and the consequence (a sweep's bucket axis adds no
level-table miss).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import PipeDreamOptimizer, SolverContextPool
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import Topology, TopologyLevel, cluster_a
from repro.profiler import analytic_profile
from repro.sim import run_sweep
from repro.sim.memory import memory_ceiling
from tests.test_level_dp_rows import latency_cluster

KINDS = ["conv", "fc", "lstm", "embedding", "pool"]


@st.composite
def profiles(draw, max_layers=6):
    spec = draw(st.lists(
        st.tuples(st.floats(1e-4, 1.0), st.integers(1, 10 ** 8),
                  st.integers(0, 10 ** 8), st.sampled_from(KINDS)),
        min_size=1, max_size=max_layers))
    return ModelProfile("h", [
        LayerProfile(f"l{i}", c, a, w, kind=kind)
        for i, (c, a, w, kind) in enumerate(spec)
    ], batch_size=1)


@st.composite
def latency_free_topologies(draw):
    """1-3 levels, none with a per-collective setup latency."""
    levels = [
        TopologyLevel(draw(st.integers(1, 3)), draw(st.floats(1e8, 1e11)),
                      draw(st.floats(0.1, 1.0)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return Topology("h", levels)


def traced_solve(profile, topology, **options):
    """Solve on a context-free optimizer; return it (its own level store
    holds every table it built) and the refined DP's planes and
    back-pointer rows, as bytes."""
    optimizer = PipeDreamOptimizer(profile, topology, **options)
    rows = []
    planes_of, reconstruct = (optimizer._refined_planes,
                              optimizer._reconstruct_refined)

    def planes(*args):
        built = planes_of(*args)
        rows.append(built.stack.tobytes())
        return built

    def pointers(ptr_k, ptr_mp, W, ptr_tp):
        rows.extend(p.tobytes() for p in (ptr_k, ptr_mp, ptr_tp))
        return reconstruct(ptr_k, ptr_mp, W, ptr_tp)

    optimizer._refined_planes = planes
    optimizer._reconstruct_refined = pointers
    try:
        optimizer.solve()
    except RuntimeError:
        pass  # infeasible under the cap: the tables built so far count
    return optimizer, rows


def level_tables(optimizer):
    return {key: [array.tobytes() for array in entry]
            for key, entry in optimizer._stores["level"].items()}


class TestBucketSizeIsInvisibleToTheDPs:
    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), topology=latency_free_topologies(),
           bucket=st.one_of(st.floats(1.0, 1e9), st.just(25e6)),
           share=st.sampled_from([None, 0.3, 0.7, 2.0]),
           recompute=st.sampled_from([None, "auto"]))
    def test_tables_and_refined_rows_equal_the_unbucketed(
            self, profile, topology, bucket, share, recompute):
        options = dict(recompute=recompute)
        if share is not None:
            options["memory_limit_bytes"] = share * memory_ceiling(
                profile, topology.total_workers)
        plain, plain_rows = traced_solve(profile, topology, **options)
        bucketed, bucketed_rows = traced_solve(
            profile, topology, bucket_bytes=bucket, **options)
        assert bucketed._cache_ns == plain._cache_ns
        assert level_tables(bucketed) == level_tables(plain)
        assert bucketed_rows == plain_rows

    def test_latency_keeps_the_namespaces_apart(self):
        profile = analytic_profile("vgg16")  # fc weights: many buckets
        topology = latency_cluster(2)
        plain = PipeDreamOptimizer(profile, topology)
        bucketed = PipeDreamOptimizer(profile, topology, bucket_bytes=25e6)
        assert plain._cache_ns != bucketed._cache_ns
        # ... and there the bucket size does change a level table.
        plain.solve()
        bucketed.solve()
        assert level_tables(plain).keys().isdisjoint(level_tables(bucketed))
        assert sorted(level_tables(plain).values()) != \
            sorted(level_tables(bucketed).values())


class TestTheSweepBuildsEachTableOnce:
    @staticmethod
    def level_misses(topology, buckets):
        pool = SolverContextPool()
        run_sweep(["gnmt8"], topology, (4, 8), strategies=("pipedream",),
                  minibatches=8, bucket_sizes=buckets, contexts=pool)
        return pool.get(analytic_profile("gnmt8")).stats()["level_misses"]

    def test_a_bucket_axis_adds_no_miss(self):
        topology = cluster_a(2)
        assert self.level_misses(topology, (None, 25e6)) == \
            self.level_misses(topology, (None,)) > 0

    def test_on_a_latency_cluster_it_does(self):
        topology = latency_cluster(2)
        assert self.level_misses(topology, (None, 25e6)) > \
            self.level_misses(topology, (None,))

    @pytest.mark.parametrize("buckets", [(None,), (None, 25e6)])
    def test_a_call_without_contexts_shares_one_pool(
            self, buckets, monkeypatch):
        """Without a caller's pool the in-process sweep makes one for the
        call: a second bucket size solves warm."""
        made = []
        original = SolverContextPool.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(SolverContextPool, "__init__", counting)
        run_sweep(["gnmt8"], cluster_a(2), (4, 8), strategies=("pipedream",),
                  minibatches=8, bucket_sizes=buckets)
        assert len(made) == 1
        stats = made[0].get(analytic_profile("gnmt8")).stats()
        assert stats["solves"] == 2 * len(buckets)
        assert (stats["level_hits"] > 0) == (len(buckets) > 1)
