"""The plan evaluator agrees with its closed-form oracle, bitwise.

``evaluate_partition_details`` walks the :mod:`repro.sim.network`
placement and all_reduce model stage by stage;
``tests.oracles.evaluate_details_closed_form`` prices the same plan with
numpy integer arithmetic over contiguous worker ranges (until PR 12 the
``vectorize=True`` path of ``src/``).  The two derivations evaluate the
exact same float expressions, so this file asserts *bitwise* equality —
no approx — over every paper model with straight and replicated plans,
latency-bearing clusters and uneven packings, plus a hypothesis fuzz
over random profiles, topologies, and plans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    PartitionEvaluation,
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_details,
    evaluate_partition_on_topology,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import cluster_a, cluster_b, cluster_c, make_cluster
from repro.profiler import analytic_profile
from repro.sim.strategies import balanced_straight_stages
from tests.oracles import ReferenceOptimizer, evaluate_details_closed_form

PAPER_MODELS = ("vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8",
                "awd-lm", "s2vt", "mask-rcnn", "ssd")

TOPO_A = cluster_a(4)


def assert_evaluations_identical(profile, stages, topology):
    """Production and closed-form evaluations must match bitwise."""
    prod = evaluate_partition_details(profile, stages, topology)
    ref = evaluate_details_closed_form(profile, stages, topology)
    assert isinstance(prod, PartitionEvaluation)
    assert prod.stage_times == ref.stage_times
    assert prod.boundary_times == ref.boundary_times
    assert prod.bottleneck_time == ref.bottleneck_time
    assert prod.bottleneck_stage == ref.bottleneck_stage
    assert prod.sync_exposed == ref.sync_exposed
    assert prod.sync_hidden == ref.sync_hidden
    # The scalar convenience wrapper agrees with the details object.
    assert evaluate_partition_on_topology(
        profile, stages, topology) == prod.bottleneck_time
    return prod


def replicated_plan(profile, total_workers):
    """A handcrafted two-stage plan with both stages replicated."""
    mid = max(1, len(profile) // 2)
    front = max(2, (3 * total_workers) // 4)
    back = total_workers - front
    if back < 1:
        front, back = total_workers - 1, 1
    return [Stage(0, mid, front), Stage(mid, len(profile), back)]


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_straight_plan_matches(model):
    profile = analytic_profile(model)
    stages = balanced_straight_stages(profile, 4)
    assert_evaluations_identical(profile, stages, TOPO_A)


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_replicated_plan_matches(model):
    profile = analytic_profile(model)
    assert_evaluations_identical(profile, replicated_plan(profile, 16),
                                 TOPO_A)


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_solved_plan_matches(model):
    """The optimizer's own chosen plan evaluates identically on each path,
    and the production and oracle DPs choose the same plan."""
    profile = analytic_profile(model)
    vec_plan = PipeDreamOptimizer(profile, TOPO_A).solve()
    ref_plan = ReferenceOptimizer(profile, TOPO_A).solve()
    assert vec_plan.stages == ref_plan.stages
    assert vec_plan.slowest_stage_time == ref_plan.slowest_stage_time
    assert vec_plan.config_string == ref_plan.config_string
    assert_evaluations_identical(profile, vec_plan.stages, TOPO_A)


def test_pure_data_parallel_plan_matches():
    profile = analytic_profile("resnet50")
    stages = [Stage(0, len(profile), 16)]
    details = assert_evaluations_identical(profile, stages, TOPO_A)
    assert details.boundary_times == ()
    assert details.bottleneck_stage == 0


@pytest.mark.parametrize("topo", [cluster_a(4), cluster_b(2), cluster_c(4),
                                  make_cluster("flat8", 8, 1, 40.0, 40.0)],
                         ids=lambda t: t.name)
def test_topologies_match(topo):
    """Hierarchies with different depths/efficiencies all agree bitwise."""
    profile = analytic_profile("gnmt8")
    total = topo.total_workers
    stages = balanced_straight_stages(profile, min(4, total))
    assert_evaluations_identical(profile, stages, topo)
    if total >= 4:
        assert_evaluations_identical(profile, replicated_plan(profile, total),
                                     topo)


#: A cluster whose levels charge a per-collective setup latency α — the
#: pricing case PR 8 fixed (α is paid once per level a ring actually runs
#: on, and only when there is a payload).
LATENCY_TOPO = make_cluster(
    "lat16", 4, 4, 12e9, 1.25e9,
    intra_allreduce_efficiency=0.5, inter_allreduce_efficiency=0.25,
    intra_allreduce_latency=2e-5, inter_allreduce_latency=8e-5,
)


@pytest.mark.parametrize("model", ("vgg16", "gnmt8", "awd-lm"))
def test_allreduce_latency_cluster_matches(model):
    profile = analytic_profile(model)
    for stages in (replicated_plan(profile, 16),
                   [Stage(0, len(profile), 16)],
                   balanced_straight_stages(profile, 4)):
        assert_evaluations_identical(profile, stages, LATENCY_TOPO)
    plan = PipeDreamOptimizer(profile, LATENCY_TOPO).solve()
    assert_evaluations_identical(profile, plan.stages, LATENCY_TOPO)


@pytest.mark.parametrize("topo", [TOPO_A, LATENCY_TOPO],
                         ids=lambda t: t.name)
def test_uneven_packing_matches(topo):
    """A 5-replica stage under 4-per-server packs 4+1: the ring at the
    server level is sized by the *largest* per-parent sibling group (the
    other PR 8 pricing fix), here and in a group that starts mid-server."""
    profile = analytic_profile("vgg16")
    n = len(profile)
    for stages in (
        [Stage(0, 10, 5), Stage(10, n, 3)],
        [Stage(0, 4, 2), Stage(4, 12, 5), Stage(12, n, 1)],
        [Stage(0, 8, 3), Stage(8, n, 13)],
    ):
        details = assert_evaluations_identical(profile, stages, topo)
        assert all(t > 0 for t in details.stage_times)


def test_bottleneck_stage_is_argmax():
    profile = analytic_profile("vgg16")
    details = evaluate_partition_details(
        profile, replicated_plan(profile, 16), TOPO_A)
    assert details.stage_times[details.bottleneck_stage] == max(
        details.stage_times)


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_sync_hidden_is_never_negative(model):
    """The hidden share is ``min(stream, stage compute) / r``.  On the
    planner's own picks at 16 and 32 workers, ``total - exposed`` rounds
    below zero (-8.7e-19 on gnmt16 ``1-7-5-3`` at cluster_b(2))."""
    profile = analytic_profile(model)
    for topo in (cluster_a(4), cluster_a(8), cluster_b(2), cluster_b(4)):
        optimizer = PipeDreamOptimizer(profile, topo)
        for workers in (16, 32):
            if workers > topo.total_workers:
                continue
            stages = optimizer.solve(workers).stages
            details = assert_evaluations_identical(profile, stages, topo)
            assert min(details.sync_hidden) >= 0.0
            for stage, exposed, hidden in zip(
                    stages, details.sync_exposed, details.sync_hidden):
                if stage.replicas == 1:
                    assert exposed == hidden == 0.0


# ----------------------------------------------------------------------
# Hypothesis fuzz: random profiles × random topologies × random plans.
# ----------------------------------------------------------------------

layer_specs = st.lists(
    st.tuples(
        st.floats(0.05, 10.0, allow_nan=False),  # compute time
        st.integers(0, 100_000),                 # activation bytes
        st.integers(0, 1_000_000),               # weight bytes
        st.sampled_from(["conv", "fc", "lstm", "embedding"]),
    ),
    min_size=2,
    max_size=7,
)


def build_profile(spec):
    layers = [LayerProfile(f"l{i}", c, a, w, kind=k)
              for i, (c, a, w, k) in enumerate(spec)]
    return ModelProfile("fuzz", layers, batch_size=1)


class TestEvaluatorFuzz:
    @given(
        spec=layer_specs,
        gpus=st.integers(2, 4),
        servers=st.integers(1, 3),
        intra=st.floats(1.0, 1000.0, allow_nan=False),
        inter=st.floats(0.5, 100.0, allow_nan=False),
        intra_eff=st.floats(0.05, 1.0, allow_nan=False),
        inter_eff=st.floats(0.05, 1.0, allow_nan=False),
        intra_lat=st.sampled_from([0.0, 1e-3, 0.05]),
        inter_lat=st.sampled_from([0.0, 5e-3, 0.5]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_plan_matches(self, spec, gpus, servers, intra, inter,
                                 intra_eff, inter_eff, intra_lat, inter_lat,
                                 data):
        profile = build_profile(spec)
        topo = make_cluster("fuzz", gpus, servers, intra, inter,
                            intra_allreduce_efficiency=intra_eff,
                            inter_allreduce_efficiency=inter_eff,
                            intra_allreduce_latency=intra_lat,
                            inter_allreduce_latency=inter_lat)
        total = topo.total_workers
        num_layers = len(profile)
        num_stages = data.draw(
            st.integers(1, min(num_layers, total)), label="num_stages")
        cuts = sorted(data.draw(
            st.lists(st.integers(1, num_layers - 1), min_size=num_stages - 1,
                     max_size=num_stages - 1, unique=True),
            label="cuts")) if num_stages > 1 else []
        bounds = [0] + cuts + [num_layers]
        # Replicas per stage, packed so the total never exceeds the
        # cluster (the evaluator's contract: contiguous in-range groups).
        budget = total - num_stages
        replicas = []
        for _ in range(num_stages):
            r = data.draw(st.integers(1, 1 + budget), label="replicas")
            budget -= r - 1
            replicas.append(r)
        recompute = data.draw(
            st.lists(st.booleans(), min_size=num_stages,
                     max_size=num_stages), label="recompute")
        stages = [Stage(b, e, r, recompute=flag)
                  for b, e, r, flag in zip(bounds, bounds[1:], replicas,
                                           recompute)]
        assert_evaluations_identical(profile, stages, topo)
