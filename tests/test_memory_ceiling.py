"""A memory cap at or above ``memory_ceiling`` cannot bind.

The planner keys every such cap as one value (shared DP tables, one
plan-cache entry), which is only sound if the ceiling really bounds every
number the solver compares with the cap.  That is a proof obligation, so
it is tested as one: the bound itself on every comparison site, then the
consequence — a solve through shared state equals a context-free solve,
whatever caps went before it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import (
    PipeDreamOptimizer,
    SolverContext,
    canonical_spec_key,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.spec import PlanSpec
from repro.core.topology import cluster_a, make_cluster
from repro.profiler import analytic_profile, available_models
from repro.serve import PlannerService
from repro.sim.memory import memory_ceiling

OPTION_SETS = [
    {},
    dict(recompute="auto"),
    dict(tp_degrees=(1, 2, 4)),
    dict(memory_refine=False),
    dict(allow_replication=False),
    dict(bucket_bytes=4e6),
]
OPTION_IDS = ["default", "recompute", "tp", "bound-only", "no-replication",
              "bucketed"]


def assert_ceiling_bounds_every_comparison(profile, topology, options):
    """With the cap *at* the ceiling, every ``cost <= cap`` the solver
    evaluates must hold: the bound matrix, the refined DP's cost planes
    (read through their masks) and every candidate's true footprint."""
    W = topology.total_workers
    ceiling = memory_ceiling(profile, W)
    optimizer = PipeDreamOptimizer(
        profile, topology, memory_limit_bytes=max(ceiling, 1), **options)
    n = len(profile)
    bound = optimizer._bound_matrix()
    assert all(bound[i][j] <= ceiling for i in range(n) for j in range(i, n))
    degrees = optimizer._tp_options
    for m in range(1, W + 1):
        for mp in range(1, m + 1):
            for t in degrees:
                if mp % t:
                    continue
                masks = optimizer._refined_fits(-(-m // mp), mp // t, t)
                assert all(mask.all() for mask in masks if mask is not None)
    candidates = [optimizer._solve_for(d)
                  for d in optimizer._decompositions(topology)]
    if optimizer.memory_refine:
        candidates.append(optimizer._solve_refined(topology))
    for stages in filter(None, candidates):
        assert max(optimizer._true_footprint(stages)) <= ceiling


class TestCeilingBoundsTheSolver:
    @pytest.mark.parametrize("options", OPTION_SETS, ids=OPTION_IDS)
    @pytest.mark.parametrize("model", sorted(available_models()))
    def test_paper_models(self, model, options):
        assert_ceiling_bounds_every_comparison(
            analytic_profile(model), cluster_a(2), options)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.lists(
            st.tuples(
                st.floats(0.0, 10.0),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.sampled_from(["conv", "fc", "lstm", "embedding", "pool"]),
            ),
            min_size=1,
            max_size=4,
        ),
        gpus=st.integers(1, 4),
        servers=st.integers(1, 2),
        options=st.sampled_from(OPTION_SETS),
    )
    def test_degenerate_profiles(self, spec, gpus, servers, options):
        profile = ModelProfile("h", [
            LayerProfile(f"l{i}", c, a, w, kind=kind)
            for i, (c, a, w, kind) in enumerate(spec)
        ], batch_size=1)
        topology = make_cluster("d", gpus, servers, 100.0, 10.0)
        assert_ceiling_bounds_every_comparison(profile, topology, options)

    def test_one_worker_is_priced_at_the_phase_one_depth(self):
        """The phase-1 floor prices a non-final span at depth 2 even when
        one worker can only ever reach depth 1."""
        profile = ModelProfile("front-heavy", [
            LayerProfile("l0", 1.0, 900, 900),
            LayerProfile("l1", 1.0, 10, 10),
        ], batch_size=1)
        assert memory_ceiling(profile, 1) == 2 * (910 + 910)
        assert_ceiling_bounds_every_comparison(
            profile, make_cluster("one", 1, 1, 100.0, 10.0), {})


def outcome(optimizer, workers):
    """Everything a reply is built from, or the infeasibility message."""
    try:
        plan = optimizer.solve(workers)
    except RuntimeError as exc:
        return str(exc)
    return (plan.stages, plan.slowest_stage_time, plan.memory_bytes,
            plan.memory_limit_bytes)


class TestSharedStateIsValueTransparent:
    @pytest.mark.parametrize("model", sorted(available_models()))
    def test_fuzzed_caps_on_one_context_equal_context_free_solves(self, model):
        """Caps from 0.02x to 3x the ceiling (and the ceiling exactly),
        worker count and options drawn per query, all against one shared
        context: whatever tables earlier caps left behind, each solve
        equals the context-free one."""
        rng = random.Random(model)
        profile = analytic_profile(model)
        cluster = cluster_a(4)
        context = SolverContext(profile)
        for case in range(150):
            workers = rng.choice((4, 8, 16))
            options = OPTION_SETS[case % len(OPTION_SETS)]
            ceiling = memory_ceiling(profile, workers)
            share = rng.choice((1.0, rng.uniform(0.02, 1.0),
                                rng.uniform(1.0, 3.0)))
            cap = float(ceiling) if share == 1.0 else share * ceiling
            # As the service solves (the subset is the topology), and as
            # a sweep does (one wide topology, several worker counts).
            topology = (cluster.subset(workers) if case % 4 else cluster)
            shared = PipeDreamOptimizer(
                profile, topology, memory_limit_bytes=cap, context=context,
                **options)
            alone = PipeDreamOptimizer(
                profile, topology, memory_limit_bytes=cap, **options)
            assert outcome(shared, workers) == outcome(alone, workers), \
                (workers, options, share)

    def test_key_rule(self):
        profile = analytic_profile("vgg16")
        ceiling = memory_ceiling(profile, 16)

        def key(cap, **options):
            return canonical_spec_key(
                PlanSpec(memory_limit_bytes=cap, **options), profile, 16)

        assert key(float(ceiling)) == key(3.0 * ceiling)
        assert key(float(ceiling)) != key(None) == ()
        below = float(ceiling - 1)
        assert key(below) == PlanSpec(memory_limit_bytes=below).key()
        assert key(below) != key(float(ceiling))
        assert key(2.0 * ceiling, recompute="auto") == \
            key(float(ceiling), recompute="auto") != key(2.0 * ceiling)


class TestServiceSharesNonBindingCaps:
    REQUEST = {"model": "vgg16", "cluster": "a", "servers": 4,
               "num_workers": 16}

    def test_one_entry_and_each_reply_echoes_its_own_cap(self):
        ceiling = memory_ceiling(analytic_profile("vgg16"), 16)
        service = PlannerService()
        first = service.plan(dict(self.REQUEST, memory_limit_bytes=80e9))
        second = service.plan(dict(self.REQUEST, memory_limit_bytes=90e9))
        assert 80e9 > ceiling
        assert (first["cached"], second["cached"]) == (False, True)
        assert first["memory_limit_bytes"] == 80e9
        assert second["memory_limit_bytes"] == 90e9
        assert {k: v for k, v in first.items()
                if k not in ("cached", "memory_limit_bytes")} == \
            {k: v for k, v in second.items()
             if k not in ("cached", "memory_limit_bytes")}
        assert len(service.plan_cache) == 1
        # A binding cap and no cap at all keep entries of their own.
        binding = service.plan(dict(self.REQUEST, memory_limit_bytes=16e9))
        free = service.plan(self.REQUEST)
        assert (binding["cached"], free["cached"]) == (False, False)
        assert binding["memory_limit_bytes"] == 16e9
        assert free["memory_limit_bytes"] is None
        assert len(service.plan_cache) == 3

    def test_distinct_caps_leave_the_solver_tables_alone(self):
        """500 never-seen non-binding caps: one solve, and the context's
        level tables stay what the first one built."""
        service = PlannerService()
        rng = random.Random(17)
        service.plan(dict(self.REQUEST, memory_limit_bytes=80e9))
        context = service.contexts.get(analytic_profile("vgg16"))
        before = context.stats()
        for _ in range(500):
            cap = 71e9 + rng.randrange(1 << 40)
            reply = service.plan(dict(self.REQUEST, memory_limit_bytes=cap))
            assert reply["cached"] and reply["memory_limit_bytes"] == cap
        after = context.stats()
        assert after == before
        assert after["solves"] == 1
        # ... and so would a service with its plan cache off.
        service = PlannerService(plan_cache_size=0)
        service.plan(dict(self.REQUEST, memory_limit_bytes=80e9))
        context = service.contexts.get(analytic_profile("vgg16"))
        before = context.stats()
        for _ in range(20):
            cap = 71e9 + rng.randrange(1 << 40)
            service.plan(dict(self.REQUEST, memory_limit_bytes=cap))
        after = context.stats()
        assert after["level_entries"] == before["level_entries"]
        assert after["level_misses"] == before["level_misses"]
