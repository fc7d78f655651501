"""Tensor parallelism as a third planning axis: the property sweep.

The hybrid 3D planner enumerates ``(replicas, tp_degree)`` cells per
stage span, prices the intra-stage collectives with the same ring model
the simulator runs, and divides only the *shardable* share of a stage's
bytes through the shared §3.3 memory kernel.  Three families of
properties pin the axis down:

* **tp=1 is a bitwise no-op** — with the degenerate menu ``(1,)`` (or no
  menu at all) every consumer (planner and its scalar oracle, the
  evaluator, both sim engines, the sweep harness, the serve cache key) must produce results
  bitwise identical to the pre-tensor-parallel code paths.  The axis may
  not perturb a single historical float.
* **the superset invariant survives the new axis** — for every plan in
  the brute-force plan space, under every (recompute mask x tp
  assignment), ``bound-admitted ⊇ refined-admitted = footprint-feasible``
  still holds, so phase-1 pruning can never discard a plan that only
  becomes feasible through sharding.
* **memory is monotone in the degree** — sharding can only shrink a
  stage's footprint, strictly so when the stage actually holds shardable
  bytes.

Alongside: the mixed-span ring/α pricing regression (a dp replica group
of tp-group leaders spans *different* topology levels than the fused
``replicas x tp_degree`` span — α and the ring terms are charged per
active level per group, never per fused span) and the registry's
structural invariants.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import RECURRENT_KINDS, LayerProfile, ModelProfile
from repro.core.ranges import range_table
from repro.core.schedule import warmup_count
from repro.core.sharding import (
    SHARDABLE_KINDS,
    is_shardable,
    validate_tp_degrees,
)
from repro.core.spec import PlanSpec
from repro.core.topology import Topology, TopologyLevel, cluster_a, make_cluster
from repro.profiler import analytic_profile
from repro.sim.memory import pipeline_memory_footprint, stage_memory_bytes
from repro.sim.network import Placement, allreduce_time
from repro.sim import strategies
from repro.sim.strategies import simulate_pipedream
from repro.sim.sweep import records_to_csv, run_sweep
from tests.oracles import ReferenceOptimizer, evaluate_details_closed_form
from tests.oracles.partition_reference import allreduce_cost_factors
from tests.oracles.sim_reference import ENGINES
from tests.test_partition_memory_refine import phase1_admits

TOPO_A = cluster_a(4)
VGG_LIMIT = 7e9  # binding-but-feasible for vgg16 @ 16 workers at tp=1


# ----------------------------------------------------------------------
# Registry invariants
# ----------------------------------------------------------------------

class TestShardabilityRegistry:
    def test_registry_disjoint_from_recurrent_kinds(self):
        """BPTT-accumulated kinds never shard: their deferred weight
        stash is priced full-width by the kernel, which is only sound
        because the registry cannot mark them shardable."""
        assert not set(SHARDABLE_KINDS) & set(RECURRENT_KINDS)

    def test_membership_is_the_predicate(self):
        for kind in SHARDABLE_KINDS:
            assert is_shardable(kind)
        for kind in RECURRENT_KINDS + ("other", "pool", "dropout"):
            assert not is_shardable(kind)

    def test_validate_tp_degrees_normalizes(self):
        assert validate_tp_degrees((4, 2, 2)) == (1, 2, 4)
        assert validate_tp_degrees([1]) == (1,)
        assert validate_tp_degrees([3]) == (1, 3)  # 1 is always offered
        assert validate_tp_degrees([]) == (1,)     # empty menu = disabled

    def test_validate_tp_degrees_rejects_bad_values(self):
        for bad in ([0], [-2], [1.5]):
            with pytest.raises(ValueError):
                validate_tp_degrees(bad)


# ----------------------------------------------------------------------
# tp=1 is a bitwise no-op, consumer by consumer
# ----------------------------------------------------------------------

def assert_results_identical(a, b):
    assert a.stages == b.stages
    assert a.slowest_stage_time == b.slowest_stage_time
    assert a.memory_bytes == b.memory_bytes
    assert a.config_string == b.config_string


class TestTp1BitwiseNoOp:
    @pytest.mark.parametrize(
        "optimizer_cls", [PipeDreamOptimizer, ReferenceOptimizer],
        ids=["production", "oracle"])
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"memory_limit_bytes": VGG_LIMIT},
         {"memory_limit_bytes": VGG_LIMIT, "recompute": "auto"}],
        ids=["free", "capped", "capped-recompute"],
    )
    def test_planner(self, optimizer_cls, kwargs):
        profile = analytic_profile("vgg16")
        base = optimizer_cls(profile, TOPO_A, **kwargs).solve()
        tp1 = optimizer_cls(
            profile, TOPO_A, tp_degrees=(1,), **kwargs).solve()
        assert_results_identical(tp1, base)

    def test_evaluator(self):
        profile = analytic_profile("vgg16")
        stages = [Stage(0, 10, 9), Stage(10, 15, 6),
                  Stage(15, len(profile), 1)]
        explicit = [Stage(s.start, s.stop, s.replicas, tp_degree=1)
                    for s in stages]
        a = evaluate_partition_details(profile, stages, TOPO_A)
        b = evaluate_partition_details(profile, explicit, TOPO_A)
        assert a == b
        assert a == evaluate_details_closed_form(profile, stages, TOPO_A)

    def test_both_engines(self, monkeypatch):
        profile = analytic_profile("vgg16")
        for engine in ("event", "reference"):
            monkeypatch.setattr(strategies, "simulate", ENGINES[engine])
            base = simulate_pipedream(profile, TOPO_A)
            tp1 = simulate_pipedream(
                profile, TOPO_A, spec=PlanSpec(tp_degrees=(1,)))
            assert tp1.config == base.config
            assert tp1.throughput == base.throughput
            assert tp1.communication_overhead == base.communication_overhead
            assert tp1.bytes_per_sample == base.bytes_per_sample
            assert tp1.memory_per_worker == base.memory_per_worker

    def test_sweep_records_and_csv(self, tmp_path):
        base = run_sweep(["vgg16"], TOPO_A, [8],
                         strategies=("dp", "pipedream"))
        tp1 = run_sweep(["vgg16"], TOPO_A, [8],
                        strategies=("dp", "pipedream"), tp_degrees=(1,))
        assert [dataclasses.asdict(r) for r in base] == \
            [dataclasses.asdict(r) for r in tp1]
        base_csv, tp1_csv = tmp_path / "base.csv", tmp_path / "tp1.csv"
        records_to_csv(base, str(base_csv))
        records_to_csv(tp1, str(tp1_csv))
        assert base_csv.read_bytes() == tp1_csv.read_bytes()
        # The degenerate menu leaves the historical column set untouched.
        assert b"tp_degrees" not in base_csv.read_bytes()

    def test_serve_cache_key(self):
        from repro.serve.service import normalize_plan_request

        base = {"model": "vgg16", "cluster": "a", "servers": 4}
        plain = normalize_plan_request(dict(base))
        tp1 = normalize_plan_request(dict(base, tp_degrees=[1]))
        assert tp1.key == plain.key  # byte-equal historical key
        tp2 = normalize_plan_request(dict(base, tp_degrees=[1, 2]))
        assert tp2.key != plain.key
        # Append-only: historical keys are a strict prefix of tp keys.
        assert tp2.key[: len(plain.key)] == plain.key

    @given(
        depth=st.integers(1, 6),
        replicas=st.integers(1, 4),
        recompute=st.booleans(),
        spec=st.lists(
            st.tuples(
                st.integers(0, 100_000),
                st.integers(0, 1_000_000),
                st.sampled_from(
                    ["conv", "fc", "attention", "lstm", "embedding", "other"]
                ),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_memory_kernel(self, depth, replicas, recompute, spec):
        """``tp_degree=1`` takes the textually-original kernel path and
        equals the historical call bit for bit."""
        layers = [LayerProfile(f"l{i}", 1.0, a, w, kind=k)
                  for i, (a, w, k) in enumerate(spec)]
        profile = ModelProfile("fuzz", layers, batch_size=1)
        n = len(layers)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                assert stage_memory_bytes(
                    profile, start, stop, depth, replicas,
                    recompute=recompute, tp_degree=1,
                ) == stage_memory_bytes(
                    profile, start, stop, depth, replicas,
                    recompute=recompute,
                )


# ----------------------------------------------------------------------
# Planner twins and plan shape with the axis enabled
# ----------------------------------------------------------------------

class TestTpPlannerTwins:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"memory_limit_bytes": VGG_LIMIT},
         {"memory_limit_bytes": VGG_LIMIT, "recompute": "auto"}],
        ids=["free", "capped", "capped-recompute"],
    )
    def test_scalar_vectorized_identical_with_tp(self, kwargs):
        profile = analytic_profile("vgg16")
        vec = PipeDreamOptimizer(
            profile, TOPO_A, tp_degrees=(1, 2), **kwargs).solve()
        ref = ReferenceOptimizer(
            profile, TOPO_A, tp_degrees=(1, 2), **kwargs).solve()
        assert_results_identical(vec, ref)

    def test_tp_plan_spends_the_physical_worker_budget(self):
        profile = analytic_profile("vgg16")
        plan = PipeDreamOptimizer(
            profile, TOPO_A, tp_degrees=(1, 2)).solve()
        assert sum(s.replicas * s.tp_degree for s in plan.stages) == \
            TOPO_A.total_workers

    def test_tp_plan_footprint_respects_the_cap(self):
        profile = analytic_profile("vgg16")
        plan = PipeDreamOptimizer(
            profile, TOPO_A, tp_degrees=(1, 2),
            memory_limit_bytes=VGG_LIMIT).solve()
        foot = pipeline_memory_footprint(profile, plan.stages)
        assert max(foot) <= VGG_LIMIT
        assert plan.memory_bytes == tuple(foot)

    def test_bucket_bytes_rejected_with_tp(self):
        profile = analytic_profile("vgg16")
        with pytest.raises(ValueError):
            PipeDreamOptimizer(
                profile, TOPO_A, tp_degrees=(1, 2), bucket_bytes=1e6)
        with pytest.raises(ValueError):
            run_sweep(["vgg16"], TOPO_A, [4], strategies=("pipedream",),
                      bucket_sizes=(1e6,), tp_degrees=(1, 2))
        tp_stage = [Stage(0, len(profile), 1, tp_degree=2),
                    Stage(0, len(profile), 1)]
        with pytest.raises(ValueError):
            evaluate_partition_details(
                profile, tp_stage[:1], TOPO_A, bucket_bytes=1e6)

    def test_allow_replication_false_still_allows_pure_tp(self):
        """``allow_replication=False`` bans data-parallel replicas, not
        intra-layer sharding: r=1 cells may still carry tp>1."""
        profile = analytic_profile("vgg16")
        plan = PipeDreamOptimizer(
            profile, TOPO_A, tp_degrees=(1, 2),
            allow_replication=False).solve()
        assert all(s.replicas == 1 for s in plan.stages)


# ----------------------------------------------------------------------
# Superset invariant over (recompute mask x tp assignment)
# ----------------------------------------------------------------------

def _build_profile(spec):
    layers = [LayerProfile(f"l{i}", c, a, w, kind=k)
              for i, (c, a, w, k) in enumerate(spec)]
    return ModelProfile("fuzz", layers, batch_size=1)


def _all_tp_plans(n, total_workers, degrees):
    """Every contiguous layout with every (replicas, tp_degree) assignment
    whose *physical* worker total is ``total_workers``."""

    def spans(start):
        if start == n:
            yield []
            return
        for stop in range(start + 1, n + 1):
            for rest in spans(stop):
                yield [(start, stop)] + rest

    def cells(k, total):
        if k == 0:
            if total == 0:
                yield []
            return
        for t in degrees:
            for r in range(1, total // t + 1):
                for rest in cells(k - 1, total - r * t):
                    yield [(r, t)] + rest

    for layout in spans(0):
        for assignment in cells(len(layout), total_workers):
            yield [Stage(a, b, r, tp_degree=t)
                   for (a, b), (r, t) in zip(layout, assignment)]


tp_layer_specs = st.lists(
    st.tuples(
        st.floats(0.05, 10.0, allow_nan=False),
        st.integers(0, 100_000),
        st.integers(0, 1_000_000),
        st.sampled_from(["conv", "fc", "attention", "lstm", "embedding"]),
    ),
    min_size=2,
    max_size=4,
)


class TestTpSupersetInvariant:
    """``bound-admitted ⊇ refined-admitted = footprint-feasible`` under
    every (recompute mask x tp assignment) — the acceptance invariant of
    the third axis, checked against brute-force enumeration rather than
    just the plans the DP happens to emit."""

    @staticmethod
    def check_invariant(profile, workers, limit_scale):
        topo = make_cluster("fuzz", workers, 1, 40.0, 40.0)
        model_bytes = sum(
            l.weight_bytes + l.activation_bytes for l in profile.layers
        )
        limit = max(1.0, limit_scale * model_bytes)
        auto_opt = PipeDreamOptimizer(
            profile, topo, memory_limit_bytes=limit, recompute="auto",
            tp_degrees=(1, 2),
        )
        n = len(profile)
        for stages in _all_tp_plans(n, workers, (1, 2)):
            for mask in itertools.product((False, True), repeat=len(stages)):
                masked = [
                    Stage(s.start, s.stop, s.replicas, recompute=flag,
                          tp_degree=s.tp_degree)
                    for s, flag in zip(stages, mask)
                ]
                foot = pipeline_memory_footprint(profile, masked)
                for s, stage in enumerate(masked):
                    # The 1F1B depth law over *physical* workers: the
                    # refined DP's ceil(suffix/width) is the simulator's
                    # warmup count, tp groups included.
                    downstream = sum(
                        st_.replicas * st_.tp_degree for st_ in masked[s:]
                    )
                    width = stage.replicas * stage.tp_degree
                    depth = -(-downstream // width)
                    assert depth == warmup_count(masked, s)
                    # refined-admitted = footprint-feasible: the mask
                    # value is the kernel at the exact depth and degree.
                    assert stage_memory_bytes(
                        profile, stage.start, stage.stop, depth,
                        stage.replicas, recompute=stage.recompute,
                        tp_degree=stage.tp_degree,
                    ) == foot[s]
                if max(foot) <= limit:
                    # bound ⊇ footprint-feasible: no (mask, tp) assignment
                    # can make phase 1 discard a feasible span.
                    for stage in masked:
                        assert phase1_admits(
                            auto_opt, stage.start, stage.stop - 1)

    @given(
        spec=tp_layer_specs,
        workers=st.integers(2, 3),
        limit_scale=st.floats(0.05, 6.0, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_invariant_over_masks_and_degrees(
        self, spec, workers, limit_scale
    ):
        self.check_invariant(_build_profile(spec), workers, limit_scale)


# ----------------------------------------------------------------------
# Memory monotonicity in the degree
# ----------------------------------------------------------------------

class TestMemoryMonotoneInDegree:
    @given(
        spec=st.lists(
            st.tuples(
                st.integers(0, 100_000),
                st.integers(0, 1_000_000),
                st.sampled_from(
                    ["conv", "fc", "attention", "lstm", "embedding", "other"]
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        depth=st.integers(1, 6),
        replicas=st.integers(1, 3),
        recompute=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_in_tp_degree(
        self, spec, depth, replicas, recompute
    ):
        layers = [LayerProfile(f"l{i}", 1.0, a, w, kind=k)
                  for i, (a, w, k) in enumerate(spec)]
        profile = ModelProfile("fuzz", layers, batch_size=1)
        n = len(layers)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                costs = [
                    stage_memory_bytes(
                        profile, start, stop, depth, replicas,
                        recompute=recompute, tp_degree=t,
                    )
                    for t in (1, 2, 4, 8)
                ]
                assert costs == sorted(costs, reverse=True)

    @given(
        spec=st.lists(
            st.tuples(
                st.integers(1_000, 100_000),
                st.integers(1_000, 1_000_000),
                st.sampled_from(["conv", "fc", "attention"]),
            ),
            min_size=1,
            max_size=4,
        ),
        depth=st.integers(1, 6),
        replicas=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_for_shardable_only_stages(
        self, spec, depth, replicas
    ):
        """A stage made purely of shardable layers with real byte counts
        must get strictly cheaper with every doubling of the degree."""
        layers = [LayerProfile(f"l{i}", 1.0, a, w, kind=k)
                  for i, (a, w, k) in enumerate(spec)]
        profile = ModelProfile("fuzz", layers, batch_size=1)
        n = len(layers)
        table = range_table(profile)
        assert table.shard_weights[n] - table.shard_weights[0] == sum(
            l.weight_bytes for l in layers)
        assert table.shard_acts[n] - table.shard_acts[0] == sum(
            l.activation_bytes for l in layers)
        costs = [
            stage_memory_bytes(profile, 0, n, depth, replicas, tp_degree=t)
            for t in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(costs, costs[1:]))


# ----------------------------------------------------------------------
# Mixed-span ring/α pricing (the satellite-3 regression)
# ----------------------------------------------------------------------

class TestMixedSpanAllreducePricing:
    """A tp group is ``t`` consecutive workers (typically intra-machine);
    its dp replica group is the *strided* group leaders (typically
    cross-machine).  The two groups activate different topology levels,
    and each collective charges α and the ring term only at the levels
    *its* ring actually runs on — never once per fused
    ``replicas x tp_degree`` span."""

    TOPO = Topology("hier", [
        TopologyLevel(4, 12e9, allreduce_latency=2e-5),
        TopologyLevel(2, 2e9, allreduce_latency=8e-5),
    ])

    def test_cost_factors_decompose_allreduce_time(self):
        """``allreduce_time == coeff * bytes + lat`` for groups spanning
        any mix of levels — the planner's closed form and the simulator's
        collective are the same pricing (same levels, same ring sizes,
        same α; the products only differ in association order)."""
        placement = Placement(self.TOPO)
        groups = [[0, 1], [0, 4], [0, 1, 2, 3], [0, 2, 4, 6],
                  list(range(8)), [0, 5], [1, 3, 6]]
        for group in groups:
            coeff, lat = allreduce_cost_factors(placement, group)
            for num_bytes in (1.0, 1e6, 3.7e7):
                assert allreduce_time(placement, group, num_bytes) == \
                    pytest.approx(coeff * num_bytes + lat, rel=1e-12)

    def test_alpha_per_active_level_per_group(self):
        placement = Placement(self.TOPO)
        # Stage r=2, t=4 on 8 workers: tp groups [0..3] / [4..7] stay
        # intra-machine; the dp group is the strided leaders [0, 4].
        tp_coeff, tp_lat = allreduce_cost_factors(placement, [0, 1, 2, 3])
        assert tp_lat == 2e-5            # level-0 α only
        assert tp_coeff == 2.0 * (3 / 4) / 12e9
        dp_coeff, dp_lat = allreduce_cost_factors(placement, [0, 4])
        assert dp_lat == 8e-5            # level-1 α only: no level-0 ring
        assert dp_coeff == 2.0 * (1 / 2) / 2e9
        fused_coeff, fused_lat = allreduce_cost_factors(
            placement, list(range(8)))
        assert fused_lat == 2e-5 + 8e-5  # the fused span pays both
        # Regression: pricing the dp sync over the fused span overcharges
        # both α and the ring terms.
        num_bytes = 1e6
        assert dp_coeff * num_bytes + dp_lat < \
            fused_coeff * num_bytes + fused_lat
        assert allreduce_time(placement, [0, 4], num_bytes) == \
            dp_coeff * num_bytes + dp_lat

    def test_singleton_groups_are_free(self):
        placement = Placement(self.TOPO)
        assert allreduce_cost_factors(placement, [3]) == (0.0, 0.0)
        assert allreduce_time(placement, [3], 1e6) == 0.0


# ----------------------------------------------------------------------
# Evaluator twins with the axis enabled
# ----------------------------------------------------------------------

class TestTpEvaluatorTwins:
    def _tp_stages(self, profile):
        n = len(profile)
        third = n // 3
        return [
            Stage(0, third, 2, tp_degree=2),
            Stage(third, 2 * third, 2),
            Stage(2 * third, n, 1, tp_degree=2),
        ]

    @staticmethod
    def _same_layout_two_axis(stages):
        """The two-axis plan occupying the same physical workers: each tp
        stage's ``replicas x tp_degree`` span as plain replicas."""
        return [Stage(s.start, s.stop, s.replicas * s.tp_degree,
                      recompute=s.recompute) for s in stages]

    def assert_plain_stage_priced_as_two_axis(self, profile, stages):
        """Inside a hybrid plan, a ``tp_degree == 1`` stage and every
        boundary link sit on the same workers as in the two-axis plan of
        the same layout, so the one pricing loop must give them the
        closed-form oracle's two-axis floats, bitwise."""
        hybrid = evaluate_partition_details(profile, stages, TOPO_A)
        flat = evaluate_details_closed_form(
            profile, self._same_layout_two_axis(stages), TOPO_A)
        assert hybrid.boundary_times == flat.boundary_times
        plain = [i for i, s in enumerate(stages) if s.tp_degree == 1]
        assert plain
        for i in plain:
            assert hybrid.stage_times[i] == flat.stage_times[i]
            assert hybrid.sync_exposed[i] == flat.sync_exposed[i]
            assert hybrid.sync_hidden[i] == flat.sync_hidden[i]
        return hybrid

    @pytest.mark.parametrize("model", ("vgg16", "gnmt8"))
    def test_plain_stage_in_hybrid_plan_matches_closed_form(self, model):
        profile = analytic_profile(model)
        self.assert_plain_stage_priced_as_two_axis(
            profile, self._tp_stages(profile))

    def test_recompute_and_tp_compose(self):
        profile = analytic_profile("vgg16")
        stages = self._tp_stages(profile)
        flagged = [Stage(s.start, s.stop, s.replicas, recompute=True,
                         tp_degree=s.tp_degree) for s in stages]
        checkpointed = self.assert_plain_stage_priced_as_two_axis(
            profile, flagged)
        # Checkpointing never raises a sharded stage's footprint either.
        plain = evaluate_partition_details(profile, stages, TOPO_A)
        assert all(f <= p for f, p in
                   zip(checkpointed.memory_bytes, plain.memory_bytes))
