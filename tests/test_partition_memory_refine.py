"""Memory-faithful planning: one §3.3 formula, three consumers.

Every memory decision the planner makes goes through the shared kernel
``repro.sim.memory.stage_memory_cost``: the phase-1 ``_bound_matrix`` mask
(an optimistic per-layer relaxation in refine mode, a conservative
worst-case in bound-only mode), the refined suffix DP's feasibility mask
(the kernel at the *exact* warmup depth ``ceil(suffix / replicas)``), and
the simulator's ``pipeline_memory_footprint`` (the same kernel at the
same depth).  The load-bearing invariant is therefore structural:

    bound-admitted  ⊇  refined-admitted  =  footprint-feasible

so phase-1 pruning can never discard a plan the simulator admits.

This file covers:

* the §3.3 pinning of ``pipeline_memory_footprint`` itself, including
  the deferred (BPTT-accumulated) weight-stash split on replicated
  stages,
* production/oracle bitwise identity of refined solves (differential,
  `test_partition_evaluator_equiv`-style),
* the recovery property on the memory-limited VGG-16 scenario (the perf
  workload's acceptance bar) and the regression the old boundary-
  activation bound caused (feasible plans silently pruned),
* hypothesis fuzz: the superset invariant above, refined plans always
  fit, and the refined feasible set subsumes the worst-case-bound
  feasible set.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.ranges import range_table
from repro.core.schedule import warmup_count
from repro.core.topology import cluster_a, cluster_b, cluster_c, make_cluster
from repro.profiler import analytic_profile
from repro.sim.memory import (
    pipeline_memory_footprint,
    stage_memory_bytes,
    stage_memory_cost,
)
from tests.oracles import ReferenceOptimizer

TOPO_A = cluster_a(4)
VGG_LIMIT = 7e9  # binding for vgg16 @ 16 workers (the perf workload cap)
# The smallest cap the *conservative* bound-only mode can certify for
# vgg16 @ 16 workers is ~13.2 GB (the early conv activations at
# worst-case depth 16); 14 GB is feasible for it but still binding.
BOUND_LIMIT = 14e9


# ----------------------------------------------------------------------
# §3.3 pinning: the footprint formula is depth x (weights + acts)
# ----------------------------------------------------------------------

class TestSection33Footprint:
    def _profile(self):
        layers = [
            LayerProfile("a", 1.0, 100, 1000),
            LayerProfile("b", 1.0, 200, 2000),
            LayerProfile("c", 1.0, 300, 3000),
            LayerProfile("d", 1.0, 400, 4000),
        ]
        return ModelProfile("toy", layers, batch_size=1)

    def test_input_stage_holds_noam_versions(self):
        """Input stage: NOAM x (weights + acts); output stage: 1 x."""
        profile = self._profile()
        stages = [Stage(0, 2, 1), Stage(2, 3, 1), Stage(3, 4, 1)]
        noam = warmup_count(stages, 0)
        assert noam == 3  # straight 3-stage pipeline
        foot = pipeline_memory_footprint(profile, stages)
        assert foot[0] == noam * ((1000 + 2000) + (100 + 200))
        assert foot[1] == 2 * (3000 + 300)
        assert foot[-1] == 1 * (4000 + 400)

    def test_replicated_input_stage_depth(self):
        """Depth is ceil(downstream / replicas), not raw worker count."""
        profile = self._profile()
        stages = [Stage(0, 2, 3), Stage(2, 4, 1)]
        # 4 workers at-or-downstream of stage 0, 3 replicas -> depth 2.
        assert warmup_count(stages, 0) == 2
        foot = pipeline_memory_footprint(profile, stages)
        assert foot[0] == 2 * ((1000 + 2000) + (100 + 200))
        assert foot[1] == 1 * ((3000 + 4000) + (300 + 400))

    def test_in_flight_override(self):
        profile = self._profile()
        stages = [Stage(0, 4, 1)]
        assert pipeline_memory_footprint(profile, stages) == [
            1 * (10000 + 1000)
        ]
        assert pipeline_memory_footprint(profile, stages, in_flight=[5]) == [
            5 * (10000 + 1000)
        ]

    def test_deferred_weights_priced_per_round(self):
        """BPTT-accumulated (lstm/embedding) weights update once per
        round of ``replicas`` minibatches, so a replicated stage stashes
        only ``ceil(depth / replicas)`` versions of them — eager weights
        and activations still pay the full depth."""
        layers = [
            LayerProfile("enc", 1.0, 100, 1000, kind="lstm"),
            LayerProfile("fc", 1.0, 10, 100, kind="fc"),
        ]
        profile = ModelProfile("rnn", layers, batch_size=1)
        stages = [Stage(0, 1, 2), Stage(1, 2, 1)]
        # Stage 0: 3 workers at-or-downstream / 2 replicas -> depth 2,
        # but the lstm weights stash only ceil(2/2) = 1 version.
        assert warmup_count(stages, 0) == 2
        foot = pipeline_memory_footprint(profile, stages)
        assert foot[0] == 1000 * 1 + 100 * 2  # deferred weights + acts
        assert foot[1] == 1 * (100 + 10)
        # The same stage unreplicated stashes depth versions of everything.
        assert stage_memory_bytes(profile, 0, 1, 2, replicas=1) == \
            2 * (1000 + 100)

    def test_eager_stage_unchanged_by_deferred_split(self):
        """Non-recurrent stages are priced exactly as before the split."""
        profile = self._profile()  # kind defaults to "other"
        stages = [Stage(0, 2, 3), Stage(2, 4, 1)]
        foot = pipeline_memory_footprint(profile, stages)
        assert foot[0] == 2 * ((1000 + 2000) + (100 + 200))


# ----------------------------------------------------------------------
# Differential: refined solves are bitwise-identical to the scalar oracle
# ----------------------------------------------------------------------

def phase1_admits(opt, i, j):
    """Phase-1 feasibility of span i..j inclusive: the shared-kernel
    bound the level DP masks with."""
    return opt._bound_matrix()[i][j] <= opt.memory_limit_bytes


def assert_refined_solves_identical(profile, topology, limit, **kw):
    vec = PipeDreamOptimizer(
        profile, topology, memory_limit_bytes=limit, **kw
    ).solve()
    ref = ReferenceOptimizer(
        profile, topology, memory_limit_bytes=limit, **kw
    ).solve()
    assert vec.stages == ref.stages
    assert vec.slowest_stage_time == ref.slowest_stage_time
    assert vec.memory_bytes == ref.memory_bytes
    assert vec.memory_limit_bytes == ref.memory_limit_bytes == limit
    return vec


@pytest.mark.parametrize("model", ("vgg16", "resnet50", "gnmt8", "alexnet"))
def test_refined_solve_matches_scalar(model):
    profile = analytic_profile(model)
    free = PipeDreamOptimizer(profile, TOPO_A).solve()
    # A binding-but-feasible limit: 80% of the free plan's worst worker.
    limit = 0.8 * max(pipeline_memory_footprint(profile, free.stages))
    plan = assert_refined_solves_identical(profile, TOPO_A, limit)
    assert max(plan.memory_bytes) <= limit


@pytest.mark.parametrize(
    "topo",
    [cluster_a(2), cluster_b(2), cluster_c(4),
     make_cluster("flat8", 8, 1, 40.0, 40.0)],
    ids=lambda t: t.name,
)
def test_refined_solve_matches_scalar_across_topologies(topo):
    profile = analytic_profile("vgg16")
    free = PipeDreamOptimizer(profile, topo).solve()
    limit = 0.9 * max(pipeline_memory_footprint(profile, free.stages))
    assert_refined_solves_identical(profile, topo, limit)


def test_refined_solver_is_memoized():
    profile = analytic_profile("vgg16")
    opt = PipeDreamOptimizer(profile, TOPO_A, memory_limit_bytes=VGG_LIMIT)
    first = opt.solve()
    second = opt.solve()
    assert first.stages == second.stages
    assert first.slowest_stage_time == second.slowest_stage_time


# ----------------------------------------------------------------------
# The recovery property (the perf workload's acceptance scenario)
# ----------------------------------------------------------------------

class TestVgg16Recovery:
    def test_refined_beats_worst_case_bound(self):
        """At 7 GB the (now sound) conservative bound has *no* feasible
        plan — any stage containing the ~820 MB early conv activations
        costs worker-count x (weights + activation sum) > 13 GB at
        worst-case depth — while the refined pass finds a plan that
        genuinely fits.  (The old boundary-activation bound instead
        *admitted* 14-1-1 here, whose true footprint busts the cap.)"""
        profile = analytic_profile("vgg16")
        with pytest.raises(RuntimeError):
            PipeDreamOptimizer(
                profile, TOPO_A, memory_limit_bytes=VGG_LIMIT,
                memory_refine=False,
            ).solve()
        refined = PipeDreamOptimizer(
            profile, TOPO_A, memory_limit_bytes=VGG_LIMIT
        ).solve()
        assert max(refined.memory_bytes) <= VGG_LIMIT

    def test_bound_only_plans_are_sound(self):
        """Where bound-only mode *is* feasible, its plan truly fits: the
        conservative bound is an upper bound on the simulated footprint
        (the old bound returned plans that overflowed the limit)."""
        profile = analytic_profile("vgg16")
        free = PipeDreamOptimizer(profile, TOPO_A).solve()
        plan = PipeDreamOptimizer(
            profile, TOPO_A, memory_limit_bytes=BOUND_LIMIT,
            memory_refine=False,
        ).solve()
        assert plan.stages != free.stages  # the cap is binding
        assert max(
            pipeline_memory_footprint(profile, plan.stages)
        ) <= BOUND_LIMIT

    def test_refined_result_echoes_memory_fields(self):
        profile = analytic_profile("vgg16")
        plan = PipeDreamOptimizer(
            profile, TOPO_A, memory_limit_bytes=VGG_LIMIT
        ).solve()
        assert plan.memory_limit_bytes == VGG_LIMIT
        assert len(plan.memory_bytes) == len(plan.stages)
        assert plan.memory_bytes == tuple(
            pipeline_memory_footprint(profile, plan.stages)
        )

    def test_unconstrained_result_has_footprint_no_limit(self):
        profile = analytic_profile("vgg16")
        plan = PipeDreamOptimizer(profile, TOPO_A).solve()
        assert plan.memory_limit_bytes is None
        assert plan.memory_bytes == tuple(
            pipeline_memory_footprint(profile, plan.stages)
        )

    def test_refine_off_reproduces_bound_only_behavior(self):
        profile = analytic_profile("vgg16")
        off = PipeDreamOptimizer(
            profile, TOPO_A, memory_limit_bytes=BOUND_LIMIT,
            memory_refine=False,
        ).solve()
        off_scalar = ReferenceOptimizer(
            profile, TOPO_A, memory_limit_bytes=BOUND_LIMIT,
            memory_refine=False,
        ).solve()
        assert off.stages == off_scalar.stages
        assert off.slowest_stage_time == off_scalar.slowest_stage_time

    def test_impossible_limit_raises(self):
        profile = analytic_profile("vgg16")
        with pytest.raises(RuntimeError):
            PipeDreamOptimizer(
                profile, TOPO_A, memory_limit_bytes=1.0
            ).solve()
        with pytest.raises(RuntimeError):
            ReferenceOptimizer(
                profile, TOPO_A, memory_limit_bytes=1.0
            ).solve()


# ----------------------------------------------------------------------
# Regression: the old boundary-activation bound silently pruned feasible
# plans
# ----------------------------------------------------------------------

class TestOldBoundRegression:
    """Pins a plan the old phase-1 bound wrongly discarded.

    Two layers (w=50, a=10 each), two flat workers, limit 130.  The
    fully-replicated single stage has true footprint ``depth 1 x (100
    weights + 20 activations) = 120 <= 130``, but the old bound charged
    ``2 versions x (100 weights + 10 boundary activation) = 220 > 130``
    and pruned it in phase 1 — the solver then silently fell back to the
    straight pipeline and nothing failed loudly.
    """

    def _setup(self):
        layers = [
            LayerProfile("a", 1.0, 10, 50),
            LayerProfile("b", 1.0, 10, 50),
        ]
        profile = ModelProfile("toy", layers, batch_size=1)
        # Fast links so the DP plan ties the straight plan on compute and
        # the solver's prefer-fewer-stages tie-break must pick it.
        topo = make_cluster("flat2", 2, 1, 1000.0, 1000.0)
        return profile, topo

    def test_recovers_plan_old_bound_pruned(self):
        profile, topo = self._setup()
        dp_plan = [Stage(0, 2, 2)]
        assert pipeline_memory_footprint(profile, dp_plan) == [120]
        for optimizer_cls in (PipeDreamOptimizer, ReferenceOptimizer):
            plan = optimizer_cls(
                profile, topo, memory_limit_bytes=130.0
            ).solve()
            assert plan.stages == dp_plan

    def test_phase1_bound_admits_the_span(self):
        """The per-layer optimistic bound admits the span the old
        whole-span worst-case arithmetic rejected."""
        profile, topo = self._setup()
        opt = PipeDreamOptimizer(profile, topo, memory_limit_bytes=130.0)
        assert phase1_admits(opt, 0, 1)


# ----------------------------------------------------------------------
# PartitionEvaluation memory fields
# ----------------------------------------------------------------------

def test_evaluation_details_carry_memory():
    profile = analytic_profile("vgg16")
    stages = [Stage(0, 10, 9), Stage(10, 15, 6), Stage(15, len(profile), 1)]
    details = evaluate_partition_details(
        profile, stages, TOPO_A, memory_limit_bytes=VGG_LIMIT
    )
    assert details.memory_bytes == tuple(
        pipeline_memory_footprint(profile, stages)
    )
    assert details.memory_limit_bytes == VGG_LIMIT
    assert details.fits_memory
    tight = evaluate_partition_details(
        profile, stages, TOPO_A, memory_limit_bytes=1.0
    )
    assert not tight.fits_memory
    free = evaluate_partition_details(profile, stages, TOPO_A)
    assert free.memory_limit_bytes is None
    assert free.fits_memory  # no limit -> vacuously true


# ----------------------------------------------------------------------
# Hypothesis fuzz: refined plans fit; refined subsumes the bound
# ----------------------------------------------------------------------

layer_specs = st.lists(
    st.tuples(
        st.floats(0.05, 10.0, allow_nan=False),  # compute time
        st.integers(0, 100_000),                 # activation bytes
        st.integers(0, 1_000_000),               # weight bytes
        st.sampled_from(["conv", "fc", "lstm", "embedding"]),
    ),
    min_size=2,
    max_size=6,
)


def build_profile(spec):
    layers = [LayerProfile(f"l{i}", c, a, w, kind=k)
              for i, (c, a, w, k) in enumerate(spec)]
    return ModelProfile("fuzz", layers, batch_size=1)


def _all_plans(n, total_workers):
    """Every contiguous partition of ``n`` layers with every replica
    assignment summing to ``total_workers`` (the brute-force plan space)."""

    def spans(start):
        if start == n:
            yield []
            return
        for stop in range(start + 1, n + 1):
            for rest in spans(stop):
                yield [(start, stop)] + rest

    def replicas(k, total):
        if k == 1:
            yield [total]
            return
        for r in range(1, total - k + 2):
            for rest in replicas(k - 1, total - r):
                yield [r] + rest

    for layout in spans(0):
        if len(layout) > total_workers:
            continue
        for reps in replicas(len(layout), total_workers):
            yield [Stage(a, b, r) for (a, b), r in zip(layout, reps)]


class TestSupersetInvariant:
    """The acceptance invariant, checked against brute-force enumeration:

        bound-admitted  ⊇  refined-admitted  =  footprint-feasible

    For *every* plan in the plan space (not just the ones the DP emits):
    if its simulated footprint fits, then (a) the refined mask — the
    shared kernel at depth ``ceil(suffix / replicas)`` — admits every
    stage with exactly the footprint's numbers, and (b) the phase-1 bound
    admits every stage span, so phase-1 pruning cannot have discarded it.
    The conservative bound-only mode is checked in the other direction:
    a plan whose every span it admits never overflows the limit.
    """

    @staticmethod
    def check_invariant(profile, workers, limit_scale):
        topo = make_cluster("fuzz", workers, 1, 40.0, 40.0)
        model_bytes = sum(
            l.weight_bytes + l.activation_bytes for l in profile.layers
        )
        limit = max(1.0, limit_scale * model_bytes)
        refine_opt = PipeDreamOptimizer(
            profile, topo, memory_limit_bytes=limit
        )
        bound_opt = PipeDreamOptimizer(
            profile, topo, memory_limit_bytes=limit, memory_refine=False
        )
        n = len(profile)
        for stages in _all_plans(n, workers):
            foot = pipeline_memory_footprint(profile, stages)
            suffix = [sum(s.replicas for s in stages[i:])
                      for i in range(len(stages))]
            for s, stage in enumerate(stages):
                # refined-admitted = footprint-feasible: the suffix DP's
                # exact depth is the simulator's warmup depth, so the
                # mask value IS the footprint value.
                depth = -(-suffix[s] // stage.replicas)
                assert depth == warmup_count(stages, s)
                assert stage_memory_bytes(
                    profile, stage.start, stage.stop, depth, stage.replicas
                ) == foot[s]
            if max(foot) <= limit:
                # bound ⊇ footprint-feasible: phase 1 admits every span.
                for stage in stages:
                    assert phase1_admits(
                        refine_opt, stage.start, stage.stop - 1)
            if all(phase1_admits(bound_opt, st_.start, st_.stop - 1)
                   for st_ in stages):
                # Conservative mode is sound: what it certifies, fits.
                assert max(foot) <= limit

    @given(
        spec=layer_specs,
        workers=st.integers(2, 4),
        limit_scale=st.floats(0.05, 6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_superset_refined_superset_footprint(
        self, spec, workers, limit_scale
    ):
        self.check_invariant(build_profile(spec), workers, limit_scale)

    @given(
        spec=layer_specs,
        workers=st.integers(2, 4),
        limit_scale=st.floats(0.05, 6.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_holds_at_fp16_payloads(
        self, spec, workers, limit_scale
    ):
        """The same structural invariant at half-width payloads: the
        precision axis reuses the one §3.3 kernel, so nothing about the
        bound/refined/footprint relationship may change when every byte
        count is rescaled by ``with_precision(2)``."""
        profile = build_profile(spec).with_precision(2)
        assert profile.bytes_per_element == 2
        self.check_invariant(profile, workers, limit_scale)


class TestRecomputeMaskInvariant:
    """The superset invariant extends over per-stage recompute masks:

        bound-admitted (recompute-auto)  ⊇  refined-admitted  =
        footprint-feasible

    for *every* plan in the plan space under *every* recompute mask.  The
    recompute-auto phase-1 floor prices a layer at depth *boundary* sets
    (zero at the floor) plus one full set — a relaxation of both recompute
    modes — so no mask can make a footprint-feasible plan bound-pruned.
    Alongside, the kernel-level property that recompute-on never prices
    above recompute-off (the clamp) is checked at every (stage, depth).
    """

    @staticmethod
    def check_invariant(profile, workers, limit_scale):
        topo = make_cluster("fuzz", workers, 1, 40.0, 40.0)
        model_bytes = sum(
            l.weight_bytes + l.activation_bytes for l in profile.layers
        )
        limit = max(1.0, limit_scale * model_bytes)
        auto_opt = PipeDreamOptimizer(
            profile, topo, memory_limit_bytes=limit, recompute="auto"
        )
        n = len(profile)
        for stages in _all_plans(n, workers):
            for mask in itertools.product((False, True), repeat=len(stages)):
                masked = [
                    Stage(s.start, s.stop, s.replicas, recompute=flag)
                    for s, flag in zip(stages, mask)
                ]
                foot = pipeline_memory_footprint(profile, masked)
                for s, stage in enumerate(masked):
                    depth = warmup_count(masked, s)
                    # refined-admitted = footprint-feasible: the mask value
                    # is the kernel at the exact depth with the same flag.
                    assert stage_memory_bytes(
                        profile, stage.start, stage.stop, depth,
                        stage.replicas, recompute=stage.recompute,
                    ) == foot[s]
                    # The clamp: checkpointing never costs more bytes.
                    assert stage_memory_bytes(
                        profile, stage.start, stage.stop, depth,
                        stage.replicas, recompute=True,
                    ) <= stage_memory_bytes(
                        profile, stage.start, stage.stop, depth,
                        stage.replicas, recompute=False,
                    )
                if max(foot) <= limit:
                    # bound ⊇ footprint-feasible, whatever the mask.
                    for stage in masked:
                        assert phase1_admits(
                            auto_opt, stage.start, stage.stop - 1)

    @given(
        spec=st.lists(
            st.tuples(
                st.floats(0.05, 10.0, allow_nan=False),
                st.integers(0, 100_000),
                st.integers(0, 1_000_000),
                st.sampled_from(["conv", "fc", "lstm", "embedding"]),
            ),
            min_size=2,
            max_size=4,
        ),
        workers=st.integers(2, 3),
        limit_scale=st.floats(0.05, 6.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariant_over_recompute_masks(self, spec, workers, limit_scale):
        self.check_invariant(build_profile(spec), workers, limit_scale)


class TestRecomputeBoundaryDepthAudit:
    """ISSUE 9 satellite: warmup-depth accounting at the recompute boundary.

    A recompute-on stage stashes ``depth`` *boundary* activation sets plus
    at most one full set (the live recompute buffer) — never ``depth``
    full sets — and the phase-1 bound matrix must agree with the refined
    mask on that, or the superset invariant breaks exactly at recompute-on
    stages.
    """

    def _profile(self):
        # Heavy interior activations behind a thin boundary: the shape
        # where checkpointing pays.
        layers = [
            LayerProfile("thin", 1.0, 10, 10),
            LayerProfile("fat", 1.0, 1000, 10),
            LayerProfile("tail", 1.0, 10, 10),
        ]
        return ModelProfile("toy", layers, batch_size=1)

    def test_kernel_prices_boundary_sets_plus_one_buffer(self):
        profile = self._profile()
        # Stage [1, 2) at depth 4: boundary (layer 0's output) is 10 bytes.
        # Off: 10 weights*4 + 1000*4 acts.  On: 10*4 + 10*4 boundary sets
        # + one 1000-byte live buffer — not 4 full sets.
        assert stage_memory_bytes(profile, 1, 2, 4, recompute=False) == \
            10 * 4 + 1000 * 4
        assert stage_memory_bytes(profile, 1, 2, 4, recompute=True) == \
            10 * 4 + 10 * 4 + 1000

    def test_kernel_clamps_recompute_at_stash_everything(self):
        """When the boundary is no thinner than the interior, recompute
        saves nothing and the kernel clamps it to the stash price."""
        layers = [
            LayerProfile("fat", 1.0, 1000, 0),
            LayerProfile("thin", 1.0, 10, 0),
        ]
        profile = ModelProfile("toy", layers, batch_size=1)
        on = stage_memory_bytes(profile, 1, 2, 4, recompute=True)
        off = stage_memory_bytes(profile, 1, 2, 4, recompute=False)
        assert on == off == 40

    def test_bound_floor_agrees_with_refined_recompute_mask(self):
        """Regression for the audit: had the auto floor priced depth
        *full* sets, phase 1 would prune the span below even though its
        recompute-on mask value fits the cap."""
        profile = self._profile()
        topo = make_cluster("flat3", 3, 1, 1000.0, 1000.0)
        limit = 1500.0
        auto = PipeDreamOptimizer(
            profile, topo, memory_limit_bytes=limit, recompute="auto")
        default = PipeDreamOptimizer(
            profile, topo, memory_limit_bytes=limit)
        # Depth-2 mask values for span [1, 2): stash-everything busts the
        # cap, checkpointing fits.
        assert stage_memory_bytes(profile, 1, 2, 2, recompute=False) > limit
        on_cost = stage_memory_bytes(profile, 1, 2, 2, recompute=True)
        assert on_cost <= limit
        # The auto floor admits the span and sits at or below the mask
        # (bound-admitted ⊇ refined-admitted); the default floor — no
        # recompute available — correctly prunes it.
        assert phase1_admits(auto, 1, 1)
        assert auto._bound_matrix()[1][1] <= on_cost
        assert not phase1_admits(default, 1, 1)


class TestArrayKernel:
    """``stage_memory_cost`` over ``(K, 1, 1)`` integer ``depth`` /
    ``replicas`` arrays — how the refined DP prices every distinct mask
    key of a solve in one call — gives, entry by entry, the bits of the
    scalar call on the same ``(n, n)`` span planes."""

    KINDS = ("embedding", "fc", "lstm", "conv", "relu", "fc")
    #: (depth, replicas): depth above, at and below the replica count.
    KEYS = [(d, r) for d in (1, 2, 3, 5, 8, 13) for r in (1, 2, 3, 8)]

    def planes(self):
        # Thin and fat activations alternate, so a recompute span can
        # come out under or over stash-everything; fc/conv shard, lstm
        # and embedding weights are deferred.
        profile = ModelProfile("kernel", [
            LayerProfile(f"l{i}", 0.01, (40_000, 900, 70_000)[i % 3],
                         100_000 + 37_000 * i, kind=self.KINDS[i % 6])
            for i in range(9)
        ], batch_size=4)
        rt, n = range_table(profile), len(profile)

        def span(prefix):
            p = np.asarray(prefix, dtype=float)
            return p[None, 1:] - p[:n, None]

        return dict(
            weight_bytes=span(rt.weights),
            deferred_weight_bytes=span(rt.deferred),
            activation_bytes=span(rt.acts),
            boundary_activation_bytes=np.asarray(
                rt.in_bytes, dtype=float)[:, None],
            shardable_weight_bytes=span(rt.shard_weights),
            shardable_activation_bytes=span(rt.shard_acts),
        )

    @pytest.mark.parametrize("tp_degree", [1, 2, 4])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_array_call_equals_scalar_calls(self, recompute, tp_degree):
        planes = self.planes()
        depth = np.array([d for d, _ in self.KEYS])[:, None, None]
        replicas = np.array([r for _, r in self.KEYS])[:, None, None]
        stack = stage_memory_cost(depth=depth, replicas=replicas,
                                  recompute=recompute, tp_degree=tp_degree,
                                  **planes)
        assert stack.shape == (len(self.KEYS),) + planes["weight_bytes"].shape
        for entry, (d, r) in enumerate(self.KEYS):
            scalar = stage_memory_cost(depth=d, replicas=r,
                                       recompute=recompute,
                                       tp_degree=tp_degree, **planes)
            assert stack[entry].tobytes() == scalar.tobytes(), (d, r)

    def test_cases_reach_the_clamp_and_the_tp_branch(self):
        """The cases above are not vacuous: recompute saves bytes on some
        spans and is clamped at stash-everything on others, and sharding
        changes the price."""
        planes = self.planes()

        def cost(**kw):
            return stage_memory_cost(depth=5, replicas=2, **planes, **kw)

        spans = np.triu(np.ones(planes["weight_bytes"].shape, dtype=bool))
        saved = cost(recompute=True) < cost()
        assert saved[spans].any() and not saved[spans].all()
        assert (cost(tp_degree=2) < cost())[spans].any()


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), recompute=st.booleans(),
           tp_degree=st.sampled_from([1, 2, 4]),
           keys=st.lists(st.tuples(st.integers(1, 1024), st.integers(1, 1024)),
                         min_size=1, max_size=6))
    def test_replicas_enter_only_through_the_stash_versions(
            self, data, recompute, tp_degree, keys):
        """The refined DP keys its masks by ``(depth, ceil(depth /
        replicas))`` and prices a representative's replica count: sound
        only because two replica counts with the same ceiling give the
        same bits, scalar and ``(K, 1, 1)`` alike."""
        planes = self.planes()
        other = []
        for d, r in keys:
            v = -(-d // r)
            # Every r' with ceil(d / r') == v lies in [ceil(d/v), hi].
            hi = 2048 if v == 1 else -(-d // (v - 1)) - 1
            other.append(data.draw(st.integers(-(-d // v), hi)))
            assert -(-d // other[-1]) == v
        kw = dict(recompute=recompute, tp_degree=tp_degree, **planes)

        def column(values):
            return np.array(values)[:, None, None]

        depth = column([d for d, _ in keys])
        stacks = [stage_memory_cost(depth=depth, replicas=column(rs), **kw)
                  for rs in ([r for _, r in keys], other)]
        assert stacks[0].tobytes() == stacks[1].tobytes()
        for (d, r), r2 in zip(keys, other):
            assert (stage_memory_cost(depth=d, replicas=r, **kw).tobytes()
                    == stage_memory_cost(depth=d, replicas=r2, **kw).tobytes())

    def test_replicas_move_the_price_when_the_ceiling_moves(self):
        """The property above is not vacuous: where a span holds deferred
        weights, ``ceil(5/1) != ceil(5/2)`` changes its price."""
        planes = self.planes()
        deferred = planes["deferred_weight_bytes"] > 0
        one, two = (stage_memory_cost(depth=5, replicas=r, **planes)
                    for r in (1, 2))
        assert deferred.any() and (one != two)[deferred].all()


class TestPrecisionMemoryShift:
    """fp16 roughly halves every §3.3 footprint, so under a fixed
    ``memory_limit_bytes`` the feasible-plan set strictly grows."""

    # Probed crossover for vgg16 @ 16 workers (refined two-phase solve):
    # fp32 is infeasible below ~1.8 GB/worker while fp16 stays feasible
    # down to ~0.85 GB.  1.5 GB sits squarely between the two.
    CROSSOVER_LIMIT = 1.5e9

    def test_fp16_feasible_where_fp32_is_not(self):
        fp32 = analytic_profile("vgg16")
        fp16 = analytic_profile("vgg16", bytes_per_element=2)
        with pytest.raises(RuntimeError):
            PipeDreamOptimizer(
                fp32, TOPO_A, memory_limit_bytes=self.CROSSOVER_LIMIT
            ).solve()
        plan = PipeDreamOptimizer(
            fp16, TOPO_A, memory_limit_bytes=self.CROSSOVER_LIMIT
        ).solve()
        assert max(plan.memory_bytes) <= self.CROSSOVER_LIMIT
        assert plan.memory_bytes == tuple(
            pipeline_memory_footprint(fp16, plan.stages)
        )

    def test_fp16_footprints_at_most_fp32(self):
        """Per stage and plan, the fp16 footprint never exceeds fp32's
        (``max(1, round(n/2))`` can only shrink or hold byte counts)."""
        fp32 = analytic_profile("vgg16")
        fp16 = fp32.with_precision(2)
        plan = PipeDreamOptimizer(fp32, TOPO_A).solve()
        foot32 = pipeline_memory_footprint(fp32, plan.stages)
        foot16 = pipeline_memory_footprint(fp16, plan.stages)
        assert all(h <= f for h, f in zip(foot16, foot32))
        assert max(foot16) < max(foot32)

    def test_refined_fp16_solve_matches_scalar(self):
        fp16 = analytic_profile("vgg16", bytes_per_element=2)
        plan = assert_refined_solves_identical(
            fp16, TOPO_A, self.CROSSOVER_LIMIT
        )
        assert max(plan.memory_bytes) <= self.CROSSOVER_LIMIT


class TestMemoryRefineFuzz:
    @given(
        spec=layer_specs,
        gpus=st.integers(2, 4),
        servers=st.integers(1, 2),
        intra=st.floats(1.0, 1000.0, allow_nan=False),
        inter=st.floats(0.5, 100.0, allow_nan=False),
        limit_scale=st.floats(0.05, 8.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_refined_plans_fit_and_subsume_bound(
        self, spec, gpus, servers, intra, inter, limit_scale
    ):
        profile = build_profile(spec)
        topo = make_cluster("fuzz", gpus, servers, intra, inter)
        model_bytes = sum(
            l.weight_bytes + l.activation_bytes for l in profile.layers
        )
        limit = max(1.0, limit_scale * model_bytes)

        def solve(optimizer_cls=PipeDreamOptimizer, **kw):
            try:
                return optimizer_cls(
                    profile, topo, memory_limit_bytes=limit, **kw
                ).solve()
            except RuntimeError:
                return None

        refined = solve()
        refined_scalar = solve(ReferenceOptimizer)
        bound = solve(memory_refine=False)
        bound_scalar = solve(ReferenceOptimizer, memory_refine=False)

        # Twins agree on feasibility and (bitwise) on the plan — the
        # bound-only pair isolates the level DP (row-0 top level vs. the
        # oracle's full tables).
        assert (bound is None) == (bound_scalar is None)
        if bound is not None:
            assert bound.stages == bound_scalar.stages
            assert bound.slowest_stage_time == bound_scalar.slowest_stage_time
        assert (refined is None) == (refined_scalar is None)
        if refined is not None:
            assert refined.stages == refined_scalar.stages
            assert (refined.slowest_stage_time
                    == refined_scalar.slowest_stage_time)
            # (a) every refined plan truly fits on every worker.
            foot = pipeline_memory_footprint(profile, refined.stages)
            assert max(foot) <= limit
            assert refined.memory_bytes == tuple(foot)

        # (b) the refined feasible set subsumes the bound's: whenever the
        # bound solver finds a *genuinely* feasible plan, the refined
        # solver also succeeds, at no worse a cost (modulo the solver's
        # 1.03 prefer-fewer-stages tolerance).
        if bound is not None and max(
            pipeline_memory_footprint(profile, bound.stages)
        ) <= limit:
            assert refined is not None
            assert refined.slowest_stage_time <= (
                bound.slowest_stage_time * 1.03 * (1.0 + 1e-9)
            )

    @given(
        spec=layer_specs,
        limit_scale=st.floats(0.1, 4.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_refined_depth_mask_matches_simulator(self, spec, limit_scale):
        """The suffix DP's per-stage depth equals the simulator's warmup
        count for the plan it emits — so the final footprint check never
        discards the refined candidate."""
        profile = build_profile(spec)
        topo = make_cluster("fuzz", 4, 1, 40.0, 40.0)
        model_bytes = sum(
            l.weight_bytes + l.activation_bytes for l in profile.layers
        )
        limit = max(1.0, limit_scale * model_bytes)
        opt = PipeDreamOptimizer(profile, topo, memory_limit_bytes=limit)
        stages = opt._solve_refined(topo)
        if stages is None:
            return
        total = sum(s.replicas for s in stages)
        for s, stage in enumerate(stages):
            downstream = sum(st_.replicas for st_ in stages[s:])
            depth = warmup_count(stages, s)
            assert depth == math.ceil(downstream / stage.replicas)
        foot = pipeline_memory_footprint(profile, stages)
        assert max(foot) <= limit
        assert total == topo.total_workers
