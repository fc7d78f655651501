"""The planner computes only the DP cells its answer reads.

Three reductions are locked down here, all required to leave every plan
*bitwise* unchanged:

- the last level of the level DP holds row ``i = 0`` only (the answer
  ``A(0→n-1, m_L)`` and its left operands ``A(0→s, m-m')`` never leave
  it), so the top level costs ``O(N² m²)`` instead of ``O(N³ m²)``;
- an inner level prices its split cube in row / column blocks, each
  scanning only the splits ``first row <= s < last column``, and both DPs
  price stage times and memory masks over the packed spans ``i <= j``
  only;
- the refined suffix DP builds each memory / stage-time plane once per
  distinct ``(depth, ceil(depth/replicas), tp)`` / ``(mp, coeff, lat)``
  — batched, one kernel call per degree and checkpoint depth, for the
  rows a shared context does not already hold — and prices each
  distinct ring-size tuple once.

The oracle (:class:`tests.oracles.ReferenceOptimizer`) fills every span of
every level and recomputes every plane and group per cell.
"""

import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.partition import (
    PipeDreamOptimizer,
    SolverContext,
    _distinct,
    evaluate_partition_on_topology,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import Topology, TopologyLevel, cluster_a, make_cluster
from repro.profiler import analytic_profile
from repro.sim.memory import memory_ceiling
from repro.sim.network import Placement
from repro.utils import obs
from tests.oracles import ReferenceOptimizer
from tests.oracles.partition_reference import allreduce_cost_factors


def toy_profile(num_layers, name="toy"):
    """Uneven compute, mixed shardable / BPTT-deferred kinds."""
    kinds = ("embedding", "fc", "lstm", "conv", "fc", "fc", "lstm", "fc")
    layers = [
        LayerProfile(
            f"l{i}",
            compute_time=0.010 + 0.007 * ((i * 5) % 7),
            activation_bytes=40_000 + 9_000 * ((i * 3) % 5),
            weight_bytes=200_000 + 150_000 * ((i * 7) % 4),
            kind=kinds[i % len(kinds)],
        )
        for i in range(num_layers)
    ]
    return ModelProfile(name, layers, batch_size=8)


def levels(*specs, name="t"):
    return Topology(name, [TopologyLevel(*spec) for spec in specs])


TOPOLOGIES = {
    "1-level": levels((8, 4e7, 0.5)),
    "2-level": levels((4, 8e7, 0.25), (3, 1e7, 0.5)),
    "3-level": levels((2, 9e7, 0.3), (2, 3e7, 0.5), (3, 8e6, 0.8)),
    "2-level-alpha": levels((4, 8e7, 0.25, 2e-4), (2, 1e7, 0.5, 4e-3)),
}

PROFILE = toy_profile(9)

#: Planning axes; a memory cap is a share of the free plan's peak
#: footprint on the same topology, so it binds without emptying the search.
AXES = {
    "free": (None, {}),
    "capped": (0.6, {}),
    "bound-capped": (2.4, dict(memory_refine=False)),
    "recompute": (0.45, dict(recompute="auto")),
    "tp": (None, dict(tp_degrees=(1, 2, 4))),
    "recompute-tp": (0.5, dict(recompute="auto", tp_degrees=(1, 2, 4))),
    "bucketed": (None, dict(bucket_bytes=300_000)),
    "no-replication": (None, dict(allow_replication=False)),
}


def axis_options(axis, profile, topology):
    share, options = AXES[axis]
    if share is None:
        return options
    free = PipeDreamOptimizer(profile, topology).solve()
    return dict(options, memory_limit_bytes=share * max(free.memory_bytes))


def solve_or_none(optimizer_cls, profile, topology, **options):
    try:
        return optimizer_cls(profile, topology, **options).solve()
    except RuntimeError:
        return None


def assert_twins_identical(profile, topology, **options):
    prod = solve_or_none(PipeDreamOptimizer, profile, topology, **options)
    ref = solve_or_none(ReferenceOptimizer, profile, topology, **options)
    assert (prod is None) == (ref is None)
    if prod is not None:
        assert prod.stages == ref.stages
        assert prod.slowest_stage_time == ref.slowest_stage_time
    return prod


class TestProductionMatchesOracle:
    @pytest.mark.parametrize("axis", sorted(AXES))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_every_axis_on_every_depth(self, topology, axis):
        topo = TOPOLOGIES[topology]
        plan = assert_twins_identical(
            PROFILE, topo, **axis_options(axis, PROFILE, topo)
        )
        # 9 layers cannot occupy 12 workers unreplicated, and checkpointing
        # alone does not rescue the single-level caps; every other cell
        # must exercise its axis rather than agree on "infeasible".
        if axis not in ("no-replication", "recompute"):
            assert plan is not None

    @pytest.mark.parametrize("axis", ["free", "tp", "no-replication"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_tiny_models_and_more_workers_than_layers(
        self, num_layers, topology, axis
    ):
        assert_twins_identical(
            toy_profile(num_layers), TOPOLOGIES[topology], **AXES[axis][1]
        )

    @pytest.mark.parametrize("model", ["vgg16", "gnmt8"])
    def test_paper_models_on_subsets(self, model):
        profile = analytic_profile(model)
        for workers in (4, 8, 16):
            prod = PipeDreamOptimizer(profile, cluster_a(4)).solve(workers)
            ref = ReferenceOptimizer(profile, cluster_a(4)).solve(workers)
            assert prod.stages == ref.stages
            assert prod.slowest_stage_time == ref.slowest_stage_time


class TestLevelCacheRows:
    """A row-0 (top-level) table must never be served where the level is
    an inner one; a full table may answer a row-0 lookup."""

    TOPO = cluster_a(4)

    @pytest.mark.parametrize("order", [(4, 8, 16), (16, 8, 4)])
    @pytest.mark.parametrize("options", [
        {}, dict(tp_degrees=(1, 2)), dict(memory_limit_bytes=12e9),
    ], ids=["free", "tp", "capped"])
    def test_warm_equals_cold_in_both_orders(self, order, options):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        for workers in order:
            warm = PipeDreamOptimizer(
                profile, self.TOPO, context=context, **options
            ).solve(workers)
            cold = PipeDreamOptimizer(
                profile, self.TOPO, **options
            ).solve(workers)
            assert warm.stages == cold.stages
            assert warm.slowest_stage_time == cold.slowest_stage_time
            assert warm.memory_bytes == cold.memory_bytes

    def level_counters(self, context):
        stats = context.stats()
        return stats["level_hits"], stats["level_misses"]

    def test_row0_table_is_not_served_as_an_inner_level(self):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        PipeDreamOptimizer(profile, self.TOPO, context=context).solve(4)
        assert self.level_counters(context) == (0, 1)  # [4] as top: row 0
        PipeDreamOptimizer(profile, self.TOPO, context=context).solve(8)
        # [4] inner (full, recomputed), [4, 2] top, flat [8] top.
        assert self.level_counters(context) == (0, 4)
        shapes = sorted(
            entry[0].shape[1] for key, entry in zip(
                context.level_tables.keys(), context.level_tables.values()
            ) if "level" in key
        )
        assert shapes == [1, 1, 1, len(profile)]

    def test_full_table_answers_a_row0_lookup(self):
        profile = analytic_profile("vgg16")
        context = SolverContext(profile)
        PipeDreamOptimizer(profile, self.TOPO, context=context).solve(8)
        hits, misses = self.level_counters(context)
        PipeDreamOptimizer(profile, self.TOPO, context=context).solve(4)
        # The 4-worker top level is the 8-worker solve's inner level.
        assert self.level_counters(context) == (hits + 1, misses)


def test_top_level_never_materialises_a_full_cube():
    """Timing-free complexity guard: a cold 42-layer / 32-worker free
    solve allocates less than one ``(m-1)(n-1) n n`` float64 candidate
    cube of the old full top-level table (≈ 18 MB at m = 32)."""
    n, workers = 42, 32
    profile = toy_profile(n)
    topology = cluster_a(workers // 4)
    tracemalloc.start()
    try:
        plan = PipeDreamOptimizer(profile, topology).solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.num_workers == workers
    assert peak < (workers - 1) * (n - 1) * n * n * 8


def test_inner_level_never_materialises_a_full_cube():
    """Timing-free complexity guard: a cold 66-layer free solve on
    ``cluster_a(4)`` peaks below one full ``n²(n-1)(m_k-1)`` float64 split
    cube of its inner level (≈ 6.8 MB): the blocked triangle peaks near
    4.2 MB, the full cube with its transposed copies at 12.9 MB."""
    n, inner = 66, 4
    profile = toy_profile(n)
    tracemalloc.start()
    try:
        plan = PipeDreamOptimizer(profile, cluster_a(4)).solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.num_workers == 16
    assert peak < n * n * (n - 1) * (inner - 1) * 8


class TestEveryCandidateTies:
    """Forty identical layers: every split, replica count and degree ties
    with its neighbours, so the first-minimum tie-breaks — (s, m') in the
    level DP's blocks, (k, m', t) in the refined DP's packed rows — decide
    every cell, and a block or a packed span that scanned its candidates
    in another order would pick another plan than the oracle."""

    PROFILE = ModelProfile("same40", [
        LayerProfile(f"l{i}", compute_time=0.01, activation_bytes=50_000,
                     weight_bytes=400_000, kind="fc")
        for i in range(40)
    ], batch_size=8)
    TOPOLOGIES = {
        "2-level": levels((4, 8e7, 0.25), (4, 1e7, 0.5)),
        "flat-32": levels((32, 4e7, 0.5)),
    }

    @pytest.mark.parametrize("capped", [False, True], ids=["free", "capped"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_production_matches_oracle(self, topology, capped):
        topo, options = self.TOPOLOGIES[topology], {}
        if capped:
            free = PipeDreamOptimizer(self.PROFILE, topo).solve()
            options = dict(recompute="auto", tp_degrees=(1, 2, 4),
                           memory_limit_bytes=0.3 * max(free.memory_bytes))
        plan = assert_twins_identical(self.PROFILE, topo, **options)
        assert plan.num_workers == topo.total_workers
        if capped:
            assert any(stage.tp_degree > 1 for stage in plan.stages)


class TestRefinedPlaneMemoisation:
    """W = 64 on a [4, 16] cluster with recompute + tp: the shape where
    ``ceil(m/mp)`` and the ring alignments repeat the most."""

    TOPO = make_cluster("wide", 4, 16, 12e9, 1.25e9,
                        intra_allreduce_efficiency=0.10,
                        inter_allreduce_efficiency=0.25,
                        intra_allreduce_latency=50e-6,
                        inter_allreduce_latency=5e-3)
    OPTIONS = dict(recompute="auto", tp_degrees=(1, 2, 4))

    def test_deduplicated_tp_tables_equal_exhaustive_ones(self):
        """Every cell of the array-built ring tables carries the oracle's
        float bits, on 1-3 level topologies of W = 1..64 workers, for
        degrees that divide W, that do not, and that exceed it."""
        for counts in [(1,), (3,), (8,), (12,), (4, 3), (4, 16), (2, 2, 3),
                       (2, 2, 2)]:
            topology = Topology("t", [
                TopologyLevel(count, 1e9 / (k + 1), 0.5 / (k + 1),
                              (0.0, 5e-5, 3e-3)[k])
                for k, count in enumerate(counts)
            ])
            W = topology.total_workers
            prod = PipeDreamOptimizer(toy_profile(4), topology)
            ref = ReferenceOptimizer(toy_profile(4), topology)
            for t in (1, 2, 3, 4, 8):
                tables = prod._refined_tp_tables(topology, t)
                oracle = ref._refined_tp_tables(topology, t)
                for table, expected in zip(tables, oracle):
                    assert table.shape == (W + 1, W + 1)
                    assert [[table[m][mp].hex() for mp in range(m + 1)]
                            for m in range(W + 1)] == [
                        [float(value).hex() for value in row]
                        for row in expected], (counts, t)

    def test_memoised_planes_give_the_recomputed_plan(self):
        profile = toy_profile(7)
        free = PipeDreamOptimizer(profile, self.TOPO).solve()
        plan = assert_twins_identical(
            profile, self.TOPO,
            memory_limit_bytes=0.5 * max(free.memory_bytes), **self.OPTIONS
        )
        assert plan is not None


@settings(max_examples=60, deadline=None)
@given(
    counts=st.sampled_from([(3,), (5,), (2, 3), (3, 2), (2, 2, 3), (4, 5),
                            (3, 3), (2, 5), (3, 2, 2), (6,), (2, 3, 2)]),
    t=st.sampled_from([1, 2, 3, 4]),
    alphas=st.lists(st.sampled_from([0.0, 5e-5, 3e-3]), min_size=3,
                    max_size=3),
)
def test_grown_strided_rings_equal_walked_ones(counts, t, alphas):
    """Every cell of the array-built ring tables equals the
    simulator's pricing of the same groups walked from scratch: the
    strided dp group ``{W-m+q*t}`` and the slowest of the ``mp/t``
    consecutive shard groups (1-3 levels, counts not powers of two).  At
    ``t = 1`` the dp group is the contiguous replica group."""
    topology = Topology("p", [
        TopologyLevel(count, 1e9 / (k + 1), 0.5 / (k + 1), alphas[k])
        for k, count in enumerate(counts)
    ])
    W = topology.total_workers
    assume(t <= W)
    optimizer = PipeDreamOptimizer(toy_profile(3), topology,
                                   tp_degrees=(1, t))
    placement = Placement(topology)
    dp_c, dp_l, tp_c, tp_l = optimizer._refined_tp_tables(topology, t)
    for m in range(t, W + 1):
        first = W - m
        for mp in range(t, m + 1, t):
            reps = [first + q * t for q in range(mp // t)]
            assert (dp_c[m][mp], dp_l[m][mp]) == allreduce_cost_factors(
                placement, reps)
            shards = [allreduce_cost_factors(placement, range(w, w + t))
                      for w in reps]
            assert tp_c[m][mp] == max(c for c, _ in shards)
            assert tp_l[m][mp] == max(l for _, l in shards)


def test_distinct_groups_entries_like_their_key_tuples():
    """The refined DP's key ranking groups entries exactly as their key
    tuples do."""
    columns = [np.array([2.0, 1.0, 2.0, 1.0, 2.0]), np.array([5, 5, 5, 6, 5])]
    at, of = _distinct(*columns)
    tuples = list(zip(*(column.tolist() for column in columns)))
    assert len(at) == len(set(tuples)) == 3
    assert all(tuples[e] == tuples[at[of[e]]] for e in range(len(tuples)))
    assert of[0] == of[2] == of[4] != of[1] != of[3]


def test_distinct_survives_a_code_wider_than_int64():
    """Five columns of 2^16 distinct values each: a code folded as
    ``code * 2^16 + rank`` without re-ranking wraps at 2^64, which would
    merge the two entries that differ in the first column only."""
    columns = [np.arange(2**16 + 1) for _ in range(5)]
    for column in columns[1:]:
        column[1] = column[0]
    at, of = _distinct(*columns)
    assert len(at) == 2**16 + 1 and of[0] != of[1]


class TestPlanScaleShape:
    """The shape of ``plan_scale``'s slowest solve: 26 layers on 64
    workers over two levels, recompute + tp, at a binding cap."""

    PROFILE = toy_profile(26)
    TOPO = TestRefinedPlaneMemoisation.TOPO

    def options(self):
        free = PipeDreamOptimizer(self.PROFILE, self.TOPO).solve()
        return dict(memory_limit_bytes=0.3 * max(free.memory_bytes),
                    recompute="auto", tp_degrees=(1, 2, 4))

    def test_production_matches_oracle(self):
        plan = assert_twins_identical(self.PROFILE, self.TOPO,
                                      **self.options())
        # The cap binds: some stage checkpoints, some stage shards.
        assert any(stage.recompute for stage in plan.stages)
        assert any(stage.tp_degree > 1 for stage in plan.stages)

    def test_warm_equals_cold_through_row_cache_hits(self, monkeypatch):
        """Worker counts that share suffix rows: the warm solve is the
        cold one bitwise, the row counters are the ones pinned before the
        planes were batched, and a warm solve builds planes only for the
        rows the context misses — none when every row hits."""
        built = []
        batched = PipeDreamOptimizer._refined_planes

        def spy(optimizer, rows, tables):
            if optimizer.context is not None:
                built.append(list(rows))
            return batched(optimizer, rows, tables)

        monkeypatch.setattr(PipeDreamOptimizer, "_refined_planes", spy)
        options = self.options()
        context = SolverContext(self.PROFILE)
        counters = []
        for workers in (32, 64, 16, 48):
            warm = PipeDreamOptimizer(
                self.PROFILE, self.TOPO, context=context, **options
            ).solve(workers)
            cold = PipeDreamOptimizer(
                self.PROFILE, self.TOPO, **options).solve(workers)
            assert warm.stages == cold.stages
            assert warm.slowest_stage_time == cold.slowest_stage_time
            assert warm.memory_bytes == cold.memory_bytes
            stats = context.stats()
            counters.append((stats["row_hits"], stats["row_misses"]))
        # The 64-worker solve reuses the 32-worker suffix rows; the 16- and
        # 48-worker solves find every row in the context.
        assert counters == [(0, 32), (32, 64), (48, 64), (96, 64)]
        assert built == [list(range(1, 33)), list(range(33, 65)), [], []]

    def test_each_mask_key_and_ring_is_priced_once(self, monkeypatch):
        """Work counters of a cold refined solve.  The memory kernel runs
        once per degree and checkpoint depth, over one plane per distinct
        ``(depth, ceil(depth / replicas))`` — 132 / 60 / 27 at degree 1 /
        2 / 4, against 337 / 145 / 61 distinct ``(depth, replicas)``.
        Each degree's ring table calls ``ring_cost_factors`` once per
        distinct size tuple among its strided and shard groups."""
        from repro.sim import memory, network

        kernel, ring = memory.stage_memory_cost, network.ring_cost_factors
        planes, rings = {}, []

        def kernel_spy(*args, tp_degree=1, **kw):
            # A batched call passes (K, 1) depths against packed planes.
            if np.ndim(args[3]) == 2:
                planes.setdefault(tp_degree, []).append(len(args[3]))
            return kernel(*args, tp_degree=tp_degree, **kw)

        def ring_spy(topology, sizes):
            rings.append(tuple(sizes))
            return ring(topology, sizes)

        options = self.options()
        monkeypatch.setattr(memory, "stage_memory_cost", kernel_spy)
        monkeypatch.setattr(network, "ring_cost_factors", ring_spy)
        optimizer = PipeDreamOptimizer(self.PROFILE, self.TOPO, **options)
        assert optimizer._solve_refined(self.TOPO) is not None
        assert planes == {1: [132, 132], 2: [60, 60], 4: [27, 27]}
        W, placement = self.TOPO.total_workers, Placement(self.TOPO)
        for t in (1, 2, 4):
            rings.clear()
            optimizer._refined_tp_tables(self.TOPO, t)
            groups = [range(w, w + t) for w in range(W - t + 1)] + [
                range(W - m, W - m + mp, t)
                for m in range(t, W + 1) for mp in range(t, m + 1, t)]
            assert sorted(rings) == sorted(
                {tuple(placement.ring_sizes(group)) for group in groups})

    def test_phase_spans_cover_the_solve(self):
        """Enabled, the registry's phase spans — the children of the
        ``solve`` span — sum to the solve's wall time within 5 %;
        disabled, a solve records nothing."""
        options = self.options()
        obs.reset()
        PipeDreamOptimizer(self.PROFILE, self.TOPO, **options).solve()
        assert obs.registry.spans == []
        obs.enable()
        try:
            start = time.perf_counter()
            PipeDreamOptimizer(self.PROFILE, self.TOPO, **options).solve()
            wall = time.perf_counter() - start
        finally:
            obs.disable()
        spans, _ = list(obs.registry.spans), obs.reset()
        phases = {span.name for span in spans if span.depth == 1}
        assert phases == {"levels", "refined", "footprint", "score"}
        assert {span.name for span in spans if span.depth == 2} == {
            "refined.rings", "refined.planes", "refined.rows"}
        covered = sum(span.seconds for span in spans if span.depth == 1)
        assert abs(covered - wall) <= 0.05 * wall

    def test_refined_solve_never_materialises_a_4d_cube(self):
        """Timing-free complexity guard: a row builds one ``(m, n, n)``
        cube, so the refined solve's peak stays far below one ``(W, W, n,
        n)`` float64 array (≈ 22 MB here).  The peak is ≈ 8.5 MB: the
        ≈ 2.8 MB stack of 522 masked degree-1 planes beside the stage-time
        and memory-kernel temporaries (the kernel over the 132 distinct
        degree-1 mask keys)."""
        n, W = len(self.PROFILE), self.TOPO.total_workers
        optimizer = PipeDreamOptimizer(self.PROFILE, self.TOPO,
                                       **self.options())
        optimizer._span_tables()
        tracemalloc.start()
        try:
            stages = optimizer._solve_refined(self.TOPO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stages is not None
        assert peak < W * W * n * n * 8 // 2


def decoder_profile(num_layers, seed):
    """Transformer-style, as the planner benchmark draws them: embedding
    + (attention, mlp) blocks + head of a 1024-wide, 128-token, batch-32
    fp32 decoder, compute jittered +-20 %."""
    rng = random.Random(seed)
    acts, wide = 32 * 128 * 1024 * 4, 1024 * 1024 * 4
    rows = [("embedding", 4e-3, acts, 8192 * 1024 * 4, "embedding")]
    for block in range((num_layers - 2) // 2):
        rows.append((f"attention{block}", 24e-3, acts, 4 * wide, "fc"))
        rows.append((f"mlp{block}", 36e-3, acts, 8 * wide, "fc"))
    rows.append(("head", 32e-3, 32 * 128 * 4, 8192 * 1024 * 4, "fc"))
    return ModelProfile(f"decoder{num_layers}", [
        LayerProfile(name, t * rng.uniform(0.8, 1.2), a, w, kind=kind)
        for name, t, a, w, kind in rows
    ], batch_size=32)


def latency_cluster(servers):
    return make_cluster("latency", 4, servers, 12e9, 1.25e9,
                        intra_allreduce_efficiency=0.10,
                        inter_allreduce_efficiency=0.25,
                        intra_allreduce_latency=50e-6,
                        inter_allreduce_latency=5e-3)


class TestPlanScaleFlavours:
    """Production == oracle bitwise on transformer-style profiles at the
    planner benchmark's small sizes, one case per planning axis, plus one
    32-worker tp + recompute case under a binding cap."""

    TP = (1, 2, 4)
    CASES = {
        "deep-free": (26, cluster_a(1), None, {}),
        "free": (18, cluster_a(2), None, {}),
        "capped": (18, cluster_a(2), 0.75, {}),
        "recompute-tp": (18, cluster_a(2), 0.42,
                         dict(recompute="auto", tp_degrees=TP)),
        "tp": (18, cluster_a(2), None, dict(tp_degrees=TP)),
        "bucketed": (18, latency_cluster(2), None, dict(bucket_bytes=25e6)),
        "widest-recompute-tp": (14, cluster_a(4), 0.30,
                                dict(recompute="auto", tp_degrees=TP)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_production_matches_oracle(self, case, seed):
        layers, topology, share, options = self.CASES[case]
        profile = decoder_profile(layers, seed)
        if share is not None:
            free = PipeDreamOptimizer(profile, topology).solve()
            options = dict(options,
                           memory_limit_bytes=share * max(free.memory_bytes))
        assert assert_twins_identical(profile, topology, **options)

    def test_32_workers_tp_recompute_at_a_binding_cap(self):
        profile, topology = decoder_profile(14, 2), cluster_a(8)
        free = PipeDreamOptimizer(profile, topology).solve()
        plan = assert_twins_identical(
            profile, topology, recompute="auto", tp_degrees=self.TP,
            memory_limit_bytes=0.3 * max(free.memory_bytes))
        assert plan.num_workers == 32
        assert any(stage.recompute for stage in plan.stages)
        assert any(stage.tp_degree > 1 for stage in plan.stages)


class TestWhyTwoDPs:
    """The refined suffix DP alone — run at ``memory_ceiling``, a cap that
    cannot bind — does not reproduce ``solve()``, so the level DP is not
    redundant and replacing it would move plans (``docs/INTERNALS.md``,
    "why there are two DPs")."""

    @staticmethod
    def refined_alone(profile, topology, **options):
        cap = memory_ceiling(profile, topology.total_workers)
        optimizer = PipeDreamOptimizer(
            profile, topology, memory_limit_bytes=cap, **options)
        return optimizer._solve_refined(topology)

    def test_level_dp_wins_a_bucketed_plan(self):
        topology, bucket = TOPOLOGIES["1-level"], 300_000
        plan = PipeDreamOptimizer(
            PROFILE, topology, bucket_bytes=bucket).solve()
        assert plan.config_string == "2-1-3-1-1"
        assert plan.slowest_stage_time == pytest.approx(0.047)
        refined = self.refined_alone(PROFILE, topology, bucket_bytes=bucket)
        assert [stage.replicas for stage in refined] == [1, 5, 1, 1]
        cost = evaluate_partition_on_topology(
            PROFILE, refined, topology, bucket_bytes=bucket)
        assert cost == pytest.approx(0.055)
        assert cost > plan.slowest_stage_time

    def test_refined_dp_alone_moves_table_1_resnet50(self):
        profile, topology = analytic_profile("resnet50"), cluster_a(4)
        plan = PipeDreamOptimizer(profile, topology).solve()
        assert plan.config_string == "16"
        refined = self.refined_alone(profile, topology)
        assert len(refined) == 8
        assert evaluate_partition_on_topology(
            profile, refined, topology) < plan.slowest_stage_time
