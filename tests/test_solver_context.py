"""Warm-started solves are bitwise-identical to cold solves.

The :class:`SolverContext` reuse layers (level tables, bound matrices,
comm tables) are pure caches of deterministic
intermediates, so a warm-started :meth:`PipeDreamOptimizer.solve` must
return exactly — bitwise — what a cold solve returns, across every axis a
planner service varies: worker count, memory cap, precision, solver
options, and the scalar oracle sharing the same context.
"""

import threading

import pytest

from repro.core.partition import (
    PipeDreamOptimizer,
    SolverContext,
    SolverContextPool,
)
from repro.core.profile import ModelProfile
from repro.core.topology import cluster_a, cluster_b
from repro.profiler import analytic_profile
from tests.oracles import ReferenceOptimizer

TOPO = cluster_a(4)  # 16 workers
LIMIT = 16e9


def cold_solve(profile, workers, optimizer_cls=PipeDreamOptimizer, **kwargs):
    return optimizer_cls(profile, TOPO, **kwargs).solve(workers)


def assert_same_plan(a, b):
    assert a.stages == b.stages
    assert a.slowest_stage_time == b.slowest_stage_time
    assert a.memory_bytes == b.memory_bytes
    assert a.num_workers == b.num_workers


class TestWarmStartBitwise:
    @pytest.mark.parametrize("model", ["vgg16", "gnmt8"])
    def test_worker_count_axis(self, model):
        profile = analytic_profile(model)
        context = SolverContext(profile)
        for workers in (16, 8, 4, 2):
            warm = PipeDreamOptimizer(
                profile, TOPO, memory_limit_bytes=LIMIT, context=context
            ).solve(workers)
            assert_same_plan(
                warm, cold_solve(profile, workers, memory_limit_bytes=LIMIT)
            )
        stats = context.stats()
        assert stats["solves"] == 4
        assert stats["level_hits"] > 0, "inner levels must be reused across counts"
        assert (stats["bound_misses"], stats["bound_hits"]) == (1, 3)

    def test_memory_cap_axis(self):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        for cap in (16e9, 12e9, 8e9, None):
            warm = PipeDreamOptimizer(
                profile, TOPO, memory_limit_bytes=cap, context=context
            ).solve(16)
            assert_same_plan(
                warm, cold_solve(profile, 16, memory_limit_bytes=cap)
            )
        stats = context.stats()
        # The bound matrix never depends on the cap: one build, then hits.
        assert stats["bound_misses"] == 1
        assert stats["bound_hits"] >= 2
        # Comm tables are per-topology-signature, shared across caps.
        assert stats["comm_hits"] >= 2

    def test_precision_axis_distinct_contexts(self):
        fp32 = analytic_profile("gnmt8")
        fp16 = analytic_profile("gnmt8", bytes_per_element=2)
        pool = SolverContextPool()
        assert pool.get(fp32) is not pool.get(fp16)
        for profile in (fp32, fp16):
            warm = PipeDreamOptimizer(
                profile, TOPO, memory_limit_bytes=LIMIT,
                context=pool.get(profile),
            ).solve(16)
            assert_same_plan(
                warm, cold_solve(profile, 16, memory_limit_bytes=LIMIT)
            )

    def test_option_axes_never_collide(self):
        """Replication/refine variants and the scalar oracle (dict-shaped
        level tables under its own namespace tag) share one context
        safely."""
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        variants = [
            dict(memory_limit_bytes=LIMIT),
            dict(memory_limit_bytes=LIMIT, memory_refine=False),
            dict(memory_limit_bytes=LIMIT, allow_replication=False),
            dict(memory_limit_bytes=LIMIT, optimizer_cls=ReferenceOptimizer),
            dict(),
        ]
        # Interleave two passes so every variant both writes and re-reads.
        for _ in range(2):
            for kwargs in variants:
                warm = cold_solve(profile, 16, context=context, **kwargs)
                assert_same_plan(warm, cold_solve(profile, 16, **kwargs))

    def test_refined_mode_scalar_twin(self):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        for workers in (16, 8):
            warm = ReferenceOptimizer(
                profile, TOPO, memory_limit_bytes=7e9, context=context,
            ).solve(workers)
            assert_same_plan(
                warm,
                cold_solve(profile, workers, ReferenceOptimizer,
                           memory_limit_bytes=7e9),
            )
        assert context.stats()["bound_hits"] > 0

    def test_cross_topology_shapes_share_context(self):
        """One context serves different clusters; keys keep them apart."""
        profile = analytic_profile("resnet50")
        context = SolverContext(profile)
        topo_b = cluster_b(2)  # 16 workers, NVLink intra
        warm_a = PipeDreamOptimizer(
            profile, TOPO, memory_limit_bytes=LIMIT, context=context
        ).solve(16)
        warm_b = PipeDreamOptimizer(
            profile, topo_b, memory_limit_bytes=LIMIT, context=context
        ).solve(16)
        assert_same_plan(warm_a, cold_solve(profile, 16, memory_limit_bytes=LIMIT))
        cold_b = PipeDreamOptimizer(
            profile, topo_b, memory_limit_bytes=LIMIT
        ).solve(16)
        assert_same_plan(warm_b, cold_b)


class TestTpNamespace:
    """Tensor-parallel menus get their own cache namespace inside a
    shared context: interleaving tp and non-tp queries (or two different
    menus) must never serve one query a table cached by the other."""

    def test_tp_and_plain_queries_never_collide(self):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        variants = [
            dict(memory_limit_bytes=LIMIT),
            dict(memory_limit_bytes=LIMIT, tp_degrees=(1, 2)),
            dict(memory_limit_bytes=LIMIT, tp_degrees=(1, 2, 4)),
            dict(tp_degrees=(1, 2)),
            dict(),
        ]
        # Interleave two passes so every variant both writes and re-reads
        # warm state that a colliding namespace would cross-contaminate.
        for _ in range(2):
            for kwargs in variants:
                warm = PipeDreamOptimizer(
                    profile, TOPO, context=context, **kwargs
                ).solve(16)
                assert_same_plan(warm, cold_solve(profile, 16, **kwargs))

    def test_degenerate_menu_shares_the_default_namespace(self):
        """``tp_degrees=(1,)`` is the disabled axis: it must warm-hit the
        tables a plain query populated (one bound build, not two)."""
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        plain = PipeDreamOptimizer(
            profile, TOPO, memory_limit_bytes=LIMIT, context=context
        ).solve(16)
        before = context.stats()["bound_misses"]
        degenerate = PipeDreamOptimizer(
            profile, TOPO, memory_limit_bytes=LIMIT, tp_degrees=(1,),
            context=context,
        ).solve(16)
        assert_same_plan(degenerate, plain)
        assert context.stats()["bound_misses"] == before

    def test_tp_warm_solves_reuse_levels_across_counts(self):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        for workers in (16, 8, 4):
            warm = PipeDreamOptimizer(
                profile, TOPO, memory_limit_bytes=LIMIT,
                tp_degrees=(1, 2), context=context,
            ).solve(workers)
            assert_same_plan(
                warm,
                cold_solve(profile, workers, memory_limit_bytes=LIMIT,
                           tp_degrees=(1, 2)),
            )
        assert context.stats()["level_hits"] > 0


class TestContextSafety:
    def test_profile_mismatch_rejected(self):
        vgg = analytic_profile("vgg16")
        resnet = analytic_profile("resnet50")
        context = SolverContext(vgg)
        with pytest.raises(ValueError, match="different profile"):
            PipeDreamOptimizer(resnet, TOPO, context=context)

    def test_equal_valued_profile_accepted(self):
        profile = analytic_profile("vgg16", cache=False)
        twin = analytic_profile("vgg16", cache=False)
        assert profile is not twin
        context = SolverContext(profile)
        warm = PipeDreamOptimizer(twin, TOPO, context=context).solve(16)
        assert_same_plan(warm, cold_solve(profile, 16))

    def test_concurrent_solves_match_cold(self):
        profile = analytic_profile("gnmt8")
        context = SolverContext(profile)
        expected = {
            workers: cold_solve(profile, workers, memory_limit_bytes=LIMIT)
            for workers in (16, 8, 4)
        }
        failures = []
        barrier = threading.Barrier(6)

        def worker(workers):
            barrier.wait()
            got = PipeDreamOptimizer(
                profile, TOPO, memory_limit_bytes=LIMIT, context=context
            ).solve(workers)
            want = expected[workers]
            if (got.stages, got.slowest_stage_time) != (
                want.stages, want.slowest_stage_time
            ):
                failures.append(workers)

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in (16, 8, 4) * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


class TestContextPool:
    def test_one_context_per_digest(self):
        pool = SolverContextPool()
        a = analytic_profile("vgg16")
        assert pool.get(a) is pool.get(a)
        assert len(pool) == 1
        pool.get(analytic_profile("resnet50"))
        assert len(pool) == 2

    def test_bounded_eviction(self):
        pool = SolverContextPool(capacity=2)
        profiles = [
            analytic_profile(m) for m in ("vgg16", "resnet50", "alexnet")
        ]
        first = pool.get(profiles[0])
        pool.get(profiles[1])
        pool.get(profiles[2])  # evicts vgg16
        assert len(pool) == 2
        assert pool.get(profiles[0]) is not first  # rebuilt after eviction

    def test_stats_shape(self):
        pool = SolverContextPool()
        profile = analytic_profile("vgg16")
        PipeDreamOptimizer(profile, TOPO, context=pool.get(profile)).solve(16)
        stats = pool.stats()
        assert stats["pool"]["entries"] == 1
        assert stats["contexts"][profile.digest()[:12]] == {
            "model": "vgg16", **pool.get(profile).stats()}
        assert stats["contexts"][profile.digest()[:12]]["solves"] == 1

    def test_stats_keep_same_named_contexts_apart(self):
        """Contexts are listed by digest: two precisions of one model and
        two inline profiles of one name are four entries, not two."""
        pool = SolverContextPool()
        fp32, fp16 = (analytic_profile("vgg16", bytes_per_element=b)
                      for b in (4, 2))
        inline = [ModelProfile.from_dict({**analytic_profile(m).to_dict(),
                                          "model_name": "inline"})
                  for m in ("alexnet", "resnet50")]
        for profile in (fp32, fp16, *inline):
            PipeDreamOptimizer(profile, TOPO, context=pool.get(profile)).solve(4)
        contexts = pool.stats()["contexts"]
        assert pool.stats()["pool"]["entries"] == len(contexts) == 4
        assert sorted(ctx["model"] for ctx in contexts.values()) == \
            ["inline", "inline", "vgg16", "vgg16"]
        assert all(ctx["solves"] == 1 for ctx in contexts.values())
