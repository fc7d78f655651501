"""The event-driven engine is an optimization, not a semantic change.

Every scenario here runs the same schedule through the full-rescan oracle
(``tests/oracles/sim_reference.py``) and the production engine (heap +
wakeup lists) and asserts bitwise-identical results: the full OpRecord timeline, the
aggregate busy/sync accounting (exposed sync included), the per-minibatch
completion times, and the crash halt instant.  ``tests/test_faults.py``
re-runs every scenario here under seeded faults.
The hypothesis cases fuzz profiles and stragglers on
top of the hand-picked regressions.  ``DP_SCENARIOS`` holds the engine's
one-row fast path for interchangeable BSP ranks to the oracle, which
always runs every rank, and pins which cases take it.

A second group pins the production partitioner DP to the scalar
oracle (``tests/oracles/partition_reference.py``): same stages, same bottleneck time, same config string, for
every paper model and the edge cases (no replication, memory limits,
worker subsets, hierarchical topologies).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    Op,
    OpKind,
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    one_f_one_b_schedule,
)
from repro.core.topology import cluster_a, cluster_b, make_cluster
from repro.profiler import analytic_profile
from repro.sim.executor import SimOptions, simulate
from repro.sim.faults import parse_faults
from repro.sim.strategies import balanced_straight_stages
from tests.oracles import ReferenceOptimizer
from tests.oracles.schedule_reference import schedule_from_ops
from tests.oracles.sim_reference import simulate_reference

VGG = analytic_profile("vgg16")
TOPO_A = cluster_a(4)


def assert_engines_identical(sched, profile, topo, options=None):
    evt = simulate(sched, profile, topo, options)
    ref = simulate_reference(sched, profile, topo, options)
    assert evt.records == ref.records
    assert evt.total_time == ref.total_time
    assert evt.num_workers == ref.num_workers
    assert evt.num_minibatches == ref.num_minibatches
    # Insertion order too: it is the order average_utilization sums in.
    for name in ("channel_busy", "sync_busy", "compute_time_per_worker",
                 "minibatch_done", "sync_exposed"):
        assert list(getattr(evt, name).items()) == list(
            getattr(ref, name).items()), name
    assert evt.halted_at == ref.halted_at
    assert evt.average_utilization == ref.average_utilization
    assert evt.steady_state_throughput == ref.steady_state_throughput
    return evt


STAGES_16 = balanced_straight_stages(VGG, 16)

SCENARIOS = {
    "straight_1f1b_16w": lambda: (
        one_f_one_b_rr_schedule(STAGES_16, 32), VGG, TOPO_A, None),
    "rr_15_1": lambda: (
        one_f_one_b_rr_schedule([Stage(0, 14, 15), Stage(14, len(VGG), 1)], 48),
        VGG, TOPO_A, None),
    "rr_8_8": lambda: (
        one_f_one_b_rr_schedule([Stage(0, 10, 8), Stage(10, len(VGG), 8)], 48),
        VGG, TOPO_A, None),
    "bsp_data_parallel": lambda: (
        data_parallel_schedule(16, 24, num_layers=len(VGG)), VGG, TOPO_A,
        SimOptions(sync_mode="bsp")),
    "gpipe_recompute": lambda: (
        gpipe_schedule(4, 6, 4), VGG, make_cluster("t4", 4, 1, 1e9, 1e9),
        SimOptions(sync_mode="gpipe", microbatches_per_batch=4,
                   recompute_activations=True)),
    "model_parallel": lambda: (
        model_parallel_schedule(4, 12), VGG,
        make_cluster("t4", 4, 1, 1e9, 1e9), None),
    "straggler_1f1b": lambda: (
        one_f_one_b_rr_schedule(STAGES_16, 32), VGG, TOPO_A,
        SimOptions(worker_speed={3: 0.5, 7: 2.0})),
    "bsp_straggler_cluster_b": lambda: (
        data_parallel_schedule(8, 16, num_layers=len(VGG)), VGG, cluster_b(1),
        SimOptions(sync_mode="bsp", worker_speed={0: 0.7})),
    # BSP round commits bump every sibling's worker_free at once — the
    # event engine's dirty-marking path.  Stragglers desynchronize the
    # round members so the bumps actually move queued ready times.
    "bsp_dp_stragglers_16w": lambda: (
        data_parallel_schedule(16, 24, num_layers=len(VGG)), VGG, TOPO_A,
        SimOptions(sync_mode="bsp",
                   worker_speed={0: 0.5, 5: 1.7, 11: 0.8, 15: 2.0})),
    # ASP data parallelism (sync_mode="pipedream"): no round barrier, the
    # no-check pop fast path must still match the rescan reference.
    "asp_data_parallel": lambda: (
        data_parallel_schedule(16, 24, num_layers=len(VGG)), VGG, TOPO_A,
        None),
    # PipeDream's ASP form of data parallelism: one replicated stage under
    # 1F1B-RR, minibatches round-robined over the replicas, weight syncs
    # once per round.  Stragglers desynchronize the round members.
    "asp_dp_single_stage_rr_stragglers": lambda: (
        one_f_one_b_rr_schedule([Stage(0, len(VGG), 8)], 40), VGG,
        cluster_b(1),
        SimOptions(worker_speed={2: 0.4, 6: 2.5})),
    # ASP over a *data-parallel* schedule with enough minibatches that the
    # pipedream rnd-2 backward gate is live (rnd reaches 4): every replica
    # runs every minibatch, so each round holds replicas x per-sweep
    # UPDATEs.  The old round-robin membership formula closed rounds after
    # the first sweep and re-committed them per later arrival, making
    # update_done (and this gate) commit-order dependent — the engines
    # disagreed on the record timeline under stragglers.
    "asp_dp_rounds_stragglers": lambda: (
        data_parallel_schedule(8, 40, num_layers=len(VGG)), VGG,
        cluster_b(1),
        SimOptions(worker_speed={1: 0.45, 5: 2.3})),
    # Replicated-stage 1F1B-RR under stragglers: weight syncs on both
    # 8-replica groups interleave with the pipeline's P2P transfers.
    "rr_8_8_stragglers": lambda: (
        one_f_one_b_rr_schedule([Stage(0, 10, 8), Stage(10, len(VGG), 8)], 48),
        VGG, TOPO_A, SimOptions(worker_speed={1: 0.6, 9: 1.9})),
    # Gradient bucketing on both replicated groups: per-bucket collectives
    # fire mid-backward while stragglers skew the round members.
    "bucketed_rr_8_8_stragglers": lambda: (
        one_f_one_b_rr_schedule([Stage(0, 10, 8), Stage(10, len(VGG), 8)], 48),
        VGG, TOPO_A,
        SimOptions(worker_speed={2: 0.7, 12: 1.6}, bucket_bytes=25e6)),
}


# ----------------------------------------------------------------------
# Schedules the builders never emit: what the loop's channel ids, routes
# and busy lists must still reproduce.
# ----------------------------------------------------------------------

#: Four layers whose boundaries carry different byte counts.
UNEVEN = ModelProfile("uneven", [
    LayerProfile("l0", 3.0, 4000, 200), LayerProfile("l1", 2.0, 900, 300),
    LayerProfile("l2", 4.0, 2500, 100), LayerProfile("l3", 1.0, 10, 50),
], batch_size=1)
UNEVEN_TOPO = make_cluster("t4", 4, 1, 1e3, 1e3)


def _one_worker_two_stages(minibatches):
    """Worker 0 runs stages 0 and 2, worker 1 stage 1: the pair (0, 1)
    carries stage 0's activations and stage 2's gradients, which cross
    different boundaries and so differ in size."""
    def op(kind, s, b):
        return Op(OpKind(kind), s, b)

    ops0 = [op("F", 0, 0)]
    ops1 = []
    for b in range(minibatches):
        if b + 1 < minibatches:
            ops0.append(op("F", 0, b + 1))
        ops0 += [op("F", 2, b), op("B", 2, b), op("U", 2, b),
                 op("B", 0, b), op("U", 0, b)]
        ops1 += [op("F", 1, b), op("B", 1, b), op("U", 1, b)]
    stages = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 4, 1)]
    return schedule_from_ops(stages, minibatches, {0: ops0, 1: ops1},
                             stage_workers={0: [0], 1: [1], 2: [0]})


def _update_first_row(minibatches):
    """Rank 0 (worker 0, stage 1) opens with an UPDATE that commits at
    t=0 before rank 1's first forward: the ranks' first commits come in
    the order 0, 1, their first compute commits in the order 1, 0."""
    def op(kind, s, b):
        return Op(OpKind(kind), s, b)

    ops0 = [op("U", 1, 0)]
    ops1 = []
    for b in range(minibatches):
        ops0 += [op("F", 1, b), op("B", 1, b), op("U", 1, b)]
        ops1 += [op("F", 0, b), op("B", 0, b), op("U", 0, b)]
    return schedule_from_ops([Stage(0, 2, 1), Stage(2, 4, 1)], minibatches,
                             {0: ops0, 1: ops1},
                             stage_workers={0: [1], 1: [0]})


def _halted_bucketed_rr():
    """A crash halts a bucketed, replicated 1F1B-RR run midway."""
    sched, profile, topo, options = SCENARIOS["bucketed_rr_8_8_stragglers"]()
    clean = simulate(sched, profile, topo, options)
    crash = parse_faults(f"crash@{clean.total_time / 2!r}:w3",
                         num_workers=topo.total_workers)
    return sched, profile, topo, SimOptions(
        worker_speed=options.worker_speed, bucket_bytes=options.bucket_bytes,
        faults=crash)


LOOP_STATE_SCENARIOS = {
    "one_worker_two_stages": lambda: (
        _one_worker_two_stages(6), UNEVEN, UNEVEN_TOPO, None),
    "one_worker_two_stages_bw_fault": lambda: (
        _one_worker_two_stages(6), UNEVEN, UNEVEN_TOPO,
        SimOptions(faults=parse_faults("bw@5:x3.0:d20", num_workers=4))),
    "update_first_row": lambda: (
        _update_first_row(4), UNEVEN, UNEVEN_TOPO, None),
    "halted_bucketed_rr_8_8": _halted_bucketed_rr,
}


@pytest.mark.parametrize("scenario", sorted(LOOP_STATE_SCENARIOS))
def test_loop_state_matches_reference(scenario):
    sched, profile, topo, options = LOOP_STATE_SCENARIOS[scenario]()
    sim = assert_engines_identical(sched, profile, topo, options)
    if scenario.startswith("one_worker_two_stages"):
        # Both directions of both worker pairs carried traffic.
        assert set(sim.channel_busy) == {(0, 1), (1, 0)}
    elif scenario == "update_first_row":
        assert sim.raw_records[0][:2] == (0, Op(OpKind.UPDATE, 1, 0))
        assert list(sim.compute_time_per_worker) == [1, 0]
    else:
        assert sim.halted_at is not None
        assert sim.channel_busy and sim.compute_time_per_worker


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_engine_matches_reference(scenario):
    sched, profile, topo, options = SCENARIOS[scenario]()
    assert_engines_identical(sched, profile, topo, options)


class TestEngineMatchesReferenceFuzzed:
    @given(
        compute=st.lists(st.floats(0.5, 20.0, allow_nan=False), min_size=4,
                         max_size=4),
        act=st.integers(0, 500),
        weights=st.integers(0, 500),
        minibatches=st.integers(1, 12),
        straggler=st.floats(0.25, 4.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_1f1b_fuzz(self, compute, act, weights, minibatches, straggler):
        layers = [LayerProfile(f"l{i}", c, act, weights)
                  for i, c in enumerate(compute)]
        profile = ModelProfile("fuzz", layers, batch_size=1)
        topo = make_cluster("t4", 4, 1, 50.0, 50.0)
        options = SimOptions(worker_speed={1: straggler})
        assert_engines_identical(
            one_f_one_b_schedule(4, minibatches), profile, topo, options)

    @given(
        compute=st.lists(st.floats(0.5, 20.0, allow_nan=False), min_size=2,
                         max_size=2),
        weights=st.integers(0, 2000),
        minibatches=st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_bsp_fuzz(self, compute, weights, minibatches):
        layers = [LayerProfile(f"l{i}", c, 0, weights)
                  for i, c in enumerate(compute)]
        profile = ModelProfile("fuzz", layers, batch_size=1)
        topo = make_cluster("t4", 4, 1, 25.0, 25.0)
        assert_engines_identical(
            data_parallel_schedule(4, minibatches, num_layers=2), profile,
            topo, SimOptions(sync_mode="bsp"))

    @given(
        compute=st.lists(st.floats(0.5, 20.0, allow_nan=False), min_size=3,
                         max_size=3),
        weights=st.integers(0, 2000),
        minibatches=st.integers(2, 16),
        speeds=st.lists(st.floats(0.25, 4.0, allow_nan=False), min_size=8,
                        max_size=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_bsp_straggler_fuzz(self, compute, weights, minibatches, speeds):
        """8-worker BSP with per-worker speeds: every round commit bumps
        seven siblings, so stale queued entries are the common case."""
        layers = [LayerProfile(f"l{i}", c, 0, weights)
                  for i, c in enumerate(compute)]
        profile = ModelProfile("fuzz", layers, batch_size=1)
        topo = make_cluster("t8", 4, 2, 25.0, 5.0)
        options = SimOptions(sync_mode="bsp",
                             worker_speed=dict(enumerate(speeds)))
        assert_engines_identical(
            data_parallel_schedule(8, minibatches, num_layers=3), profile,
            topo, options)


# ----------------------------------------------------------------------
# Interchangeable data-parallel ranks: one row simulated, fanned out.
# ----------------------------------------------------------------------

from repro.core.schedule import (  # noqa: E402
    Op, OpKind, schedule_for_family)
from repro.sim.executor import _SimCore  # noqa: E402
from repro.sim.faults import FaultSchedule, parse_faults  # noqa: E402
from repro.sim.strategies import simulate_data_parallel  # noqa: E402

GNMT16 = analytic_profile("gnmt16")
AWD = analytic_profile("awd-lm")


def _dp(profile, workers, m, topo=None, family="1f1b", **options):
    """A BSP data-parallel case on ``workers`` ranks of ``topo``."""
    topo = topo or make_cluster("flat", workers, 1, 12e9, 1e9)
    sched = schedule_for_family(
        data_parallel_schedule(workers, m, num_layers=len(profile)), family)
    return sched, profile, topo, SimOptions(sync_mode="bsp", **options)


def _vgg_forward(forward):
    """vgg16 with every layer's forward time set to ``forward``."""
    return ModelProfile("vgg16-f", [
        LayerProfile(l.name, l.compute_time, l.activation_bytes,
                     l.weight_bytes, forward_time=forward, kind=l.kind)
        for l in VGG.layers], VGG.batch_size, VGG.bytes_per_element)


def _repeated_minibatch(workers):
    """Identical rows whose UPDATE is followed by a forward its round does
    not gate: F0 B0 U0 F0 B0 U0."""
    ops = [Op(OpKind(kind), 0, 0) for kind in "FBU"] * 2
    return schedule_from_ops([Stage(0, len(VGG), workers)], 1,
                             {w: list(ops) for w in range(workers)})


#: name -> (case builder, whether the one-row fast path applies).
DP_SCENARIOS = {
    "dp_2w_m1": (lambda: _dp(VGG, 2, 1), True),
    "dp_4w_m4_cluster_a": (lambda: _dp(VGG, 4, 4, cluster_a(1)), True),
    "dp_16w_m48_cluster_a": (lambda: _dp(VGG, 16, 48, cluster_a(4)), True),
    "dp_32w_m4_cluster_b": (lambda: _dp(VGG, 32, 4, cluster_b(4)), True),
    "dp_bucketed_16w_m4": (
        lambda: _dp(VGG, 16, 4, cluster_a(4), bucket_bytes=25e6), True),
    "dp_bucketed_small_8w_m4": (
        lambda: _dp(VGG, 8, 4, cluster_b(1), bucket_bytes=1e5), True),
    "dp_gnmt16_bucketed_8w_m48": (
        lambda: _dp(GNMT16, 8, 48, cluster_b(1), bucket_bytes=25e6), True),
    "dp_awd_32w_m4": (lambda: _dp(AWD, 32, 4, cluster_a(8)), True),
    "dp_fp16_gnmt16_16w_m4": (
        lambda: _dp(GNMT16.with_precision(2), 16, 4, cluster_b(2)), True),
    "dp_fp16_bucketed_4w_m48": (
        lambda: _dp(VGG.with_precision(2), 4, 48, bucket_bytes=25e6), True),
    "dp_2bp_8w_m4": (lambda: _dp(VGG, 8, 4, cluster_b(1), "2bp"), True),
    "dp_uniform_speed_8w_m4": (
        lambda: _dp(VGG, 8, 4, worker_speed=dict.fromkeys(range(8), 0.6)),
        True),
    "dp_empty_faults_8w_m4": (
        lambda: _dp(VGG, 8, 4, faults=FaultSchedule([])), True),
    "dp_one_slow_worker_8w_m4": (
        lambda: _dp(VGG, 8, 4, worker_speed={5: 0.6}), False),
    "dp_straggler_fault_8w_m4": (
        lambda: _dp(VGG, 8, 4, faults=parse_faults(
            "slow@0:w2:x2:d0.5", num_workers=8)), False),
    "dp_zero_forward_4w_m4": (
        lambda: _dp(_vgg_forward(0.0), 4, 4, cluster_a(1)), False),
    "dp_repeated_minibatch_4w": (
        lambda: (_repeated_minibatch(4), VGG, cluster_a(1),
                 SimOptions(sync_mode="bsp")), False),
}


@pytest.fixture
def loop_commits(monkeypatch):
    """Commit counts of every ``_SimCore.run_event`` call, in order."""
    counts = []
    run_event = _SimCore.run_event

    def spy(core):
        run_event(core)
        counts.append(len(core.log_rank))

    monkeypatch.setattr(_SimCore, "run_event", spy)
    return counts


@pytest.mark.parametrize("scenario", sorted(DP_SCENARIOS))
def test_dp_fast_path_matches_reference(scenario, loop_commits):
    """The fan-out of one row is the all-ranks run, bitwise, and the
    predicate collapses exactly the interchangeable cases."""
    build, collapses = DP_SCENARIOS[scenario]
    sched, profile, topo, options = build()
    sim = assert_engines_identical(sched, profile, topo, options)
    rows = sched.table.kinds
    assert loop_commits == [len(rows[0]) if collapses
                            else sum(map(len, rows))]
    assert len(sim.raw_records) == sum(map(len, rows))


#: A per-layer forward whose stage forward (compute minus backward: 2**-54
#: s) stays positive, yet is at most half an ulp of any clock past 0.5 s.
ABSORBED_FORWARD = 2.5e-18


def test_dp_absorbed_duration_runs_every_rank(loop_commits):
    """A positive forward the clock absorbs is zero-length in the run:
    the collapsed run is discarded and every rank runs."""
    sched, profile, topo, options = _dp(_vgg_forward(ABSORBED_FORWARD), 4, 3,
                                        cluster_a(1))
    assert 0.0 < _SimCore(sched, profile, topo, options).fwd_time[0]
    assert_engines_identical(sched, profile, topo, options)
    rows = sched.table.kinds
    assert loop_commits == [len(rows[0]), sum(map(len, rows))]


def test_rerun_records_a_second_init_and_loop():
    """The spans of a collapsed run that is re-run on every rank."""
    from repro.utils import obs

    sched, profile, topo, options = _dp(_vgg_forward(ABSORBED_FORWARD), 4, 3,
                                        cluster_a(1))
    first, was_enabled = len(obs.registry.spans), obs.registry.enabled
    obs.enable()
    try:
        simulate(sched, profile, topo, options)
        spans = obs.registry.spans[first:]
    finally:
        if not was_enabled:
            obs.disable()
        del obs.registry.spans[first:]
    assert [(span.name, span.depth) for span in spans] == [
        ("sim.init", 1), ("sim.loop", 1), ("sim.init", 1), ("sim.loop", 1),
        ("sim.result", 1), ("simulate", 0)]
    rows = sched.table.kinds
    assert [span.attrs for span in spans if span.name == "sim.loop"] == [
        {"ops": len(rows[0]), "ranks": 1},
        {"ops": sum(map(len, rows)), "ranks": len(rows)}]


def test_data_parallel_driver_simulates_one_row(loop_commits):
    """The driver's run takes the fast path: its loop commits one row."""
    result = simulate_data_parallel(VGG, cluster_a(4), 12, bucket_bytes=25e6)
    assert loop_commits == [3 * 12]
    assert sorted(result.sim.compute_time_per_worker) == list(range(16))


# ----------------------------------------------------------------------
# Production (numpy) partitioner DP vs the scalar oracle.
# ----------------------------------------------------------------------

PAPER_MODELS = ("vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8",
                "awd-lm", "s2vt", "mask-rcnn", "ssd")


def assert_plans_identical(profile, topo, num_workers=None, **kwargs):
    vec = PipeDreamOptimizer(profile, topo, **kwargs)
    ref = ReferenceOptimizer(profile, topo, **kwargs)
    pv = vec.solve(num_workers)
    pr = ref.solve(num_workers)
    assert pv.stages == pr.stages
    assert pv.slowest_stage_time == pr.slowest_stage_time
    assert pv.config_string == pr.config_string
    assert pv.num_workers == pr.num_workers
    return pv


@pytest.mark.parametrize("model", PAPER_MODELS)
def test_vectorized_plan_matches_scalar(model):
    assert_plans_identical(analytic_profile(model), TOPO_A)


def test_vectorized_no_replication(toy_profile, flat4):
    assert_plans_identical(toy_profile, flat4, allow_replication=False)


def test_vectorized_two_level(toy_profile, two_level):
    assert_plans_identical(toy_profile, two_level)


@pytest.mark.parametrize("num_workers", [2, 3, 4, 8])
def test_vectorized_worker_subsets(num_workers):
    assert_plans_identical(analytic_profile("gnmt8"), TOPO_A, num_workers)


def test_vectorized_memory_limit(toy_profile, flat4):
    # Generous limit: feasible in both, identical plans.
    assert_plans_identical(toy_profile, flat4, memory_limit_bytes=1e9)
    # Impossibly tight limit: both paths must agree it is infeasible.
    vec = PipeDreamOptimizer(toy_profile, flat4, memory_limit_bytes=1.0)
    ref = ReferenceOptimizer(toy_profile, flat4, memory_limit_bytes=1.0)
    with pytest.raises(RuntimeError):
        vec.solve()
    with pytest.raises(RuntimeError):
        ref.solve()


def test_memoized_solver_matches_cold_solves():
    """One optimizer reused across worker counts == fresh solves."""
    profile = analytic_profile("vgg16")
    shared = PipeDreamOptimizer(profile, TOPO_A)
    for workers in (4, 8, 12, 16):
        warm = shared.solve(workers)
        cold = PipeDreamOptimizer(profile, TOPO_A).solve(workers)
        assert warm.stages == cold.stages
        assert warm.slowest_stage_time == cold.slowest_stage_time


# ----------------------------------------------------------------------
# Tensor-parallel stages: intra-stage collectives in both engines.
# ----------------------------------------------------------------------

from repro.core.partition import SolverContext  # noqa: E402
from repro.core.schedule import schedule_for_family  # noqa: E402
from repro.core.topology import Topology, TopologyLevel  # noqa: E402
from repro.sim.faults import parse_faults  # noqa: E402

HIER_TOPO = Topology("hier", [
    TopologyLevel(4, 12e9, allreduce_latency=2e-5),
    TopologyLevel(2, 2e9, allreduce_latency=8e-5),
])
FLAT8 = Topology("flat8", [TopologyLevel(8, 25e9)])
#: Pinned memory cap for vgg16 on FLAT8: infeasible at tp=1, recovered
#: by sharding (see TestTpPlanShift).
VGG_FLAT8_CAP = 1766.3e6


def _tp_stages_vgg():
    """A hand-built hybrid plan for vgg16 on 8 workers: a sharded
    replicated head (2x2), two plain stages, and a sharded tail (1x2)."""
    n = len(VGG)
    return [Stage(0, 8, 2, tp_degree=2), Stage(8, 12, 1),
            Stage(12, 16, 1), Stage(16, n, 1, tp_degree=2)]


TP_SCENARIOS = {
    # The planner's own hybrid pick on a hierarchical cluster.
    "tp_planned_hier": lambda: (
        one_f_one_b_rr_schedule(
            PipeDreamOptimizer(
                VGG, HIER_TOPO, memory_limit_bytes=VGG_FLAT8_CAP,
                tp_degrees=(1, 2)).solve().stages, 32),
        VGG, HIER_TOPO, None),
    "tp_hand_plan_flat8": lambda: (
        one_f_one_b_rr_schedule(_tp_stages_vgg(), 32), VGG, FLAT8, None),
    # Uneven packing: a tp=3 group [2, 3, 4] straddles the host boundary
    # of a 3-per-host cluster, so its shard collective crosses levels.
    "tp_uneven_cross_host": lambda: (
        one_f_one_b_rr_schedule(
            [Stage(0, 8, 1, tp_degree=2), Stage(8, 14, 1, tp_degree=3),
             Stage(14, len(VGG), 1)], 24),
        VGG, make_cluster("t6", 3, 2, 10e9, 1e9), None),
    "tp_stragglers": lambda: (
        one_f_one_b_rr_schedule(_tp_stages_vgg(), 32), VGG, HIER_TOPO,
        SimOptions(worker_speed={1: 0.5, 6: 2.0})),
    # A bandwidth-fault window squeezes the links while tp collectives
    # and dp syncs are in flight.
    "tp_bandwidth_fault_window": lambda: (
        one_f_one_b_rr_schedule(_tp_stages_vgg(), 32), VGG, HIER_TOPO,
        SimOptions(faults=parse_faults("bw@0.5:x4.0:d2.0", num_workers=8))),
    "tp_2bp_backward_split": lambda: (
        schedule_for_family(
            one_f_one_b_rr_schedule(_tp_stages_vgg(), 32), "2bp"),
        VGG, FLAT8, None),
    "tp_2bp_stragglers": lambda: (
        schedule_for_family(
            one_f_one_b_rr_schedule(_tp_stages_vgg(), 32), "2bp"),
        VGG, HIER_TOPO, SimOptions(worker_speed={3: 0.6, 5: 1.8})),
}


@pytest.mark.parametrize("scenario", sorted(TP_SCENARIOS))
def test_engine_matches_reference_with_tp(scenario):
    sched, profile, topo, options = TP_SCENARIOS[scenario]()
    assert_engines_identical(sched, profile, topo, options)


class TestTpPlanShift:
    """The acceptance scenario: a memory-capped cell that is infeasible
    at tp=1 becomes feasible through the third axis, and warm-started
    solves agree with cold ones bitwise."""

    def test_vgg16_flat8_recovered_by_tp(self):
        for optimizer_cls in (PipeDreamOptimizer, ReferenceOptimizer):
            with pytest.raises(RuntimeError):
                optimizer_cls(
                    VGG, FLAT8, memory_limit_bytes=VGG_FLAT8_CAP).solve()
            plan = optimizer_cls(
                VGG, FLAT8, memory_limit_bytes=VGG_FLAT8_CAP,
                tp_degrees=(1, 2)).solve()
            assert plan.config_string == "1x2-1x2-2x2"
            assert max(plan.memory_bytes) <= VGG_FLAT8_CAP
            assert any(s.tp_degree > 1 for s in plan.stages)

    def test_gnmt16_flat8_recovered_by_tp(self):
        gnmt = analytic_profile("gnmt16")
        cap = 475.1e6
        with pytest.raises(RuntimeError):
            PipeDreamOptimizer(gnmt, FLAT8, memory_limit_bytes=cap).solve()
        plan = PipeDreamOptimizer(
            gnmt, FLAT8, memory_limit_bytes=cap, tp_degrees=(1, 2)).solve()
        assert plan.config_string == "3-1-2-1x2"
        assert max(plan.memory_bytes) <= cap

    def test_warm_start_matches_cold_with_tp(self):
        context = SolverContext(VGG)
        kwargs = dict(memory_limit_bytes=VGG_FLAT8_CAP, tp_degrees=(1, 2))
        warm_opt = PipeDreamOptimizer(VGG, FLAT8, context=context, **kwargs)
        for workers in (4, 6, 8):
            warm = warm_opt.solve(workers)
            cold = PipeDreamOptimizer(VGG, FLAT8, **kwargs).solve(workers)
            assert warm.stages == cold.stages
            assert warm.slowest_stage_time == cold.slowest_stage_time
            assert warm.memory_bytes == cold.memory_bytes
        # A second warm solve of the same query is served from the same
        # tables and stays bitwise put.
        again = warm_opt.solve(8)
        assert again.stages == warm_opt.solve(8).stages


# ----------------------------------------------------------------------
# The table path: what the engine reads, and what it never builds.
# ----------------------------------------------------------------------

from repro.core.schedule import Schedule  # noqa: E402
from repro.sim.executor import SimResult  # noqa: E402
from repro.sim.strategies import (  # noqa: E402
    simulate_data_parallel,
    simulate_gpipe,
    simulate_partition,
)
from repro.sim.sweep import run_sweep  # noqa: E402


class TestTablePath:
    def test_mutated_view_is_what_gets_simulated(self):
        """The builder's ops, edited and rebuilt into a table, are what
        gets simulated."""
        built = one_f_one_b_rr_schedule(
            [Stage(0, 10, 2), Stage(10, len(VGG), 2)], 12)
        untouched = simulate(built, VGG, TOPO_A)
        sched = schedule_from_ops(built.stages, 12, {
            worker: [op for op in ops if op.minibatch < 10]
            for worker, ops in built.worker_ops.items()}, built.stage_workers)
        assert_engines_identical(sched, VGG, TOPO_A)
        edited = simulate(sched, VGG, TOPO_A)
        assert edited.raw_records == [
            (r.worker, r.op, r.start, r.end) for r in edited.records]
        assert [(r.worker, r.op) for r in edited.records] == [
            (r.worker, r.op) for r in untouched.records
            if r.op.minibatch < 10]
        assert sorted(edited.minibatch_done) == list(range(10))
        rebuilt = schedule_from_ops(sched.stages, 12, dict(sched.worker_ops))
        assert simulate(rebuilt, VGG, TOPO_A).records == edited.records

    def test_drivers_and_sweep_build_no_op_or_record(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("materialised on an aggregate-only path")

        for cls, name in ((Schedule, "worker_ops"), (SimResult, "raw_records"),
                          (SimResult, "records")):
            monkeypatch.setattr(cls, name, property(forbidden))
        stages = [Stage(0, 10, 2), Stage(10, len(VGG), 2)]
        simulate_partition(VGG, TOPO_A, stages, 8)
        simulate_partition(VGG, TOPO_A, stages, 8, schedule_family="2bp")
        simulate_partition(VGG, TOPO_A, stages, 8, faults=parse_faults(
            "seed=1:crashes=0:stragglers=2", num_workers=4, horizon=2.0))
        simulate_data_parallel(VGG, TOPO_A, 4, bucket_bytes=1e6)
        simulate_gpipe(VGG, TOPO_A, num_batches=2)
        records = run_sweep(["vgg16"], cluster_a(1), [2, 4],
                            strategies=("dp", "pipedream", "mp", "gpipe"),
                            minibatches=8, schedule_families=("1f1b", "2bp"))
        assert records
