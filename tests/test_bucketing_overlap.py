"""Gradient bucketing + wait-free backprop overlap, and the collective
pricing fixes that ride along.

Four groups:

1. The bucket former (``repro.comm.bucketing``): backward-order fusion,
   cap semantics, recurrent/zero-weight exclusion, count table agreement.
2. Collective pricing fixes: the largest-per-parent ring sizing of
   ``allreduce_time`` (uneven packings were mean-rounded before), the
   per-level setup latency α, the closed-form ``ring_allreduce_bytes``,
   and per-layer element recovery in ``allreduce_bytes_for_profile``.
3. Fusion-off transparency: ``bucket_bytes=None`` is bitwise the
   pre-bucketing evaluator and simulator; with fusion on, the event and
   reference engines stay bitwise twins, and the analytic evaluator's
   exposed-sync split matches the event engine's measured one exactly on
   uniform BSP rounds.
4. A planner pin: on an α>0 topology, bucketing shifts the gnmt8 plan
   (replication pays α per bucket, so the solver backs off a replica set).
"""

import pytest

from repro.comm.bucketing import (
    gradient_buckets,
    stream_bucket_count,
    stream_bucket_count_table,
)
from repro.comm.channel import Network
from repro.comm.collective import (
    allreduce_bytes_for_profile,
    ring_allreduce,
    ring_allreduce_bytes,
)
from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    data_parallel_schedule,
    gpipe_schedule,
    one_f_one_b_rr_schedule,
)
from repro.core.topology import cluster_a, make_cluster
from repro.profiler import analytic_profile
from repro.sim.executor import SimOptions, simulate
from repro.sim.faults import parse_faults
from repro.sim.network import Placement, allreduce_time
from tests.oracles.sim_reference import ENGINES, simulate_reference

import numpy as np


def hand_profile(weights, kinds=None, compute=3.0):
    kinds = kinds if kinds is not None else ["conv"] * len(weights)
    layers = [
        LayerProfile(f"l{i}", compute, 100, w, kind=k)
        for i, (w, k) in enumerate(zip(weights, kinds))
    ]
    return ModelProfile("hand", layers, batch_size=1)


# ----------------------------------------------------------------------
# 1. The bucket former
# ----------------------------------------------------------------------
class TestBucketFormer:
    def test_backward_order_and_cap(self):
        # Four 10-byte gradients, 20-byte cap: two buckets, formed in
        # backward order — the top half of the model fuses first.
        profile = hand_profile([10, 10, 10, 10])
        buckets = gradient_buckets(profile, 0, 4, 20)
        assert [(b.payload_bytes, b.first_layer, b.last_layer) for b in buckets] == [
            (20, 2, 3),
            (20, 0, 1),
        ]
        # compute 3.0 → backward 2.0 per layer; the first bucket is ready
        # when layers 3 and 2 have run backward: 4 of 8 seconds.
        assert buckets[0].ready_fraction == pytest.approx(0.5)
        assert buckets[1].ready_fraction == pytest.approx(1.0)

    def test_oversize_gradient_gets_own_bucket(self):
        profile = hand_profile([5, 100, 5])
        buckets = gradient_buckets(profile, 0, 3, 20)
        assert [b.payload_bytes for b in buckets] == [5, 100, 5]

    def test_recurrent_and_zero_weight_excluded(self):
        profile = hand_profile(
            [10, 10, 0, 10], kinds=["conv", "lstm", "conv", "embedding"]
        )
        buckets = gradient_buckets(profile, 0, 4, 100)
        assert len(buckets) == 1
        assert buckets[0].payload_bytes == 10
        assert (buckets[0].first_layer, buckets[0].last_layer) == (0, 0)

    def test_ready_fractions_monotone_in_unit_interval(self):
        profile = hand_profile([7, 3, 15, 1, 9, 4])
        buckets = gradient_buckets(profile, 0, 6, 10)
        fracs = [b.ready_fraction for b in buckets]
        assert all(0 < f <= 1 for f in fracs)
        assert fracs == sorted(fracs)

    def test_count_matches_former_and_table(self):
        profile = hand_profile(
            [7, 0, 3, 15, 1, 9, 4, 2],
            kinds=["conv", "conv", "lstm", "conv", "fc", "conv", "fc", "conv"],
        )
        n = len(profile)
        table = stream_bucket_count_table(profile, 10)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                formed = len(gradient_buckets(profile, start, stop, 10))
                assert stream_bucket_count(profile, start, stop, 10) == formed
                assert table[start][stop - 1] == formed

    def test_rejects_nonpositive_cap(self):
        profile = hand_profile([10])
        with pytest.raises(ValueError):
            gradient_buckets(profile, 0, 1, 0)
        with pytest.raises(ValueError):
            stream_bucket_count(profile, 0, 1, -1)


# ----------------------------------------------------------------------
# 2. Collective pricing fixes
# ----------------------------------------------------------------------
class TestAllreduceGroupSizing:
    def test_uneven_packing_prices_largest_ring(self):
        # 5 workers under 4-per-host: a 4-ring on host 0 plus a singleton
        # on host 1.  The old round(span_k / span_{k+1}) sizing took
        # round(5/2) = 2 and under-priced the intra level.
        topo = make_cluster("t", 4, 2, 100.0, 10.0)
        placement = Placement(topo)
        workers = list(range(5))
        assert placement.ring_sizes(workers) == [4, 2]
        expected = (
            2.0 * (4 - 1) / 4 * 400.0 / 100.0
            + 2.0 * (2 - 1) / 2 * 400.0 / 10.0
        )
        assert allreduce_time(placement, workers, 400.0) == pytest.approx(expected)
        # The buggy mean-rounded sizing would have charged a 2-ring intra.
        under_priced = (
            2.0 * (2 - 1) / 2 * 400.0 / 100.0
            + 2.0 * (2 - 1) / 2 * 400.0 / 10.0
        )
        assert allreduce_time(placement, workers, 400.0) > under_priced

    def test_one_worker_per_host_skips_intra_level(self):
        topo = make_cluster("t", 4, 2, 100.0, 10.0,
                            intra_allreduce_latency=0.5,
                            inter_allreduce_latency=0.25)
        placement = Placement(topo)
        # Workers 0 and 4 sit on different hosts: no intra ring runs, so
        # neither intra bandwidth nor intra α is charged.
        expected = 2.0 * (2 - 1) / 2 * 400.0 / 10.0 + 0.25
        assert allreduce_time(placement, [0, 4], 400.0) == pytest.approx(expected)

    def test_latency_charged_once_per_level(self):
        topo = make_cluster("t", 4, 2, 100.0, 10.0,
                            intra_allreduce_latency=0.5,
                            inter_allreduce_latency=0.25)
        placement = Placement(topo)
        workers = list(range(8))
        flat_cost = (
            2.0 * (4 - 1) / 4 * 400.0 / 100.0
            + 2.0 * (2 - 1) / 2 * 400.0 / 10.0
        )
        assert allreduce_time(placement, workers, 400.0) == pytest.approx(
            flat_cost + 0.5 + 0.25
        )

    def test_degenerate_groups_free(self):
        placement = Placement(make_cluster("t", 4, 2, 100.0, 10.0,
                                           intra_allreduce_latency=9.0))
        assert allreduce_time(placement, [3], 1e9) == 0.0
        assert allreduce_time(placement, [0, 1], 0.0) == 0.0


class TestRingAllreduceBytes:
    def test_closed_form(self):
        assert ring_allreduce_bytes(10, 4, 8) == 2 * 3 * 10 * 8
        assert ring_allreduce_bytes(10, 1) == 0
        assert ring_allreduce_bytes(0, 4) == 0

    def test_matches_observed_network_bytes(self):
        rng = np.random.default_rng(7)
        contributions = [
            {"w": rng.standard_normal(13), "b": rng.standard_normal(5)}
            for _ in range(4)
        ]
        network = Network()
        results = ring_allreduce(contributions, network=network)
        assert network.total_bytes == ring_allreduce_bytes(18, 4, 8)
        stacked = np.stack([c["w"] for c in contributions]).mean(axis=0)
        np.testing.assert_allclose(results[0]["w"], stacked)

    def test_single_participant_copies_without_scaling(self):
        source = {"w": np.array([2.0, 4.0])}
        [result] = ring_allreduce([source], average=True)
        np.testing.assert_array_equal(result["w"], source["w"])
        result["w"][0] = -1.0  # a copy, not an alias
        assert source["w"][0] == 2.0


class TestProfileVolumeRecovery:
    def test_fp16_halves_volume_despite_clamped_layer(self):
        # A 1-byte layer clamps to one element at every precision; the
        # per-layer recovery keeps the element count precision-invariant
        # so the fp32:fp16 volume ratio is exactly the byte ratio.
        fp32 = hand_profile([4000, 1])
        fp16 = fp32.with_precision(2)
        b32 = allreduce_bytes_for_profile(fp32, 4)
        b16 = allreduce_bytes_for_profile(fp16, 4)
        assert b32 == ring_allreduce_bytes(1001, 4, 4)
        assert b16 == ring_allreduce_bytes(1001, 4, 2)
        assert b32 == 2 * b16

    def test_zero_weight_layers_ignored(self):
        profile = hand_profile([0, 400, 0])
        assert allreduce_bytes_for_profile(profile, 2) == ring_allreduce_bytes(
            100, 2, 4
        )


# ----------------------------------------------------------------------
# 3. Fusion-off transparency + engine twins + analytic agreement
# ----------------------------------------------------------------------
VGG = analytic_profile("vgg16")
TOPO_A4 = cluster_a(1)  # 4 workers, one server


def _assert_engines_identical(sched, profile, topo, options):
    ref = simulate_reference(sched, profile, topo, options)
    evt = simulate(sched, profile, topo, options)
    assert evt.records == ref.records
    assert evt.total_time == ref.total_time
    assert evt.sync_busy == ref.sync_busy
    assert evt.sync_exposed == ref.sync_exposed
    assert evt.channel_busy == ref.channel_busy
    return evt


class TestFusionOffNoOp:
    def test_evaluator_bucket_none_is_bitwise_legacy(self):
        stages = [Stage(0, 14, 3), Stage(14, len(VGG), 1)]
        legacy = evaluate_partition_details(VGG, stages, TOPO_A4)
        explicit = evaluate_partition_details(VGG, stages, TOPO_A4,
                                              bucket_bytes=None)
        assert explicit.stage_times == legacy.stage_times
        assert explicit.boundary_times == legacy.boundary_times
        assert explicit.bottleneck_time == legacy.bottleneck_time
        assert explicit.bucket_bytes is None

    def test_simulator_bucket_none_is_bitwise_legacy(self):
        sched = data_parallel_schedule(4, 8, num_layers=len(VGG))
        base = simulate(sched, VGG, TOPO_A4, SimOptions(sync_mode="bsp"))
        explicit = simulate(
            sched, VGG, TOPO_A4,
            SimOptions(sync_mode="bsp", bucket_bytes=None))
        assert explicit.records == base.records
        assert explicit.total_time == base.total_time
        assert explicit.sync_busy == base.sync_busy

    def test_options_reject_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            SimOptions(bucket_bytes=0)


BUCKETED_SCENARIOS = {
    "bsp_dp": lambda bb: (
        data_parallel_schedule(4, 8, num_layers=len(VGG)), VGG, TOPO_A4,
        SimOptions(sync_mode="bsp", bucket_bytes=bb)),
    "pipedream_replicated": lambda bb: (
        one_f_one_b_rr_schedule([Stage(0, 14, 3), Stage(14, len(VGG), 1)], 12),
        VGG, TOPO_A4, SimOptions(sync_mode="pipedream", bucket_bytes=bb)),
    "gpipe": lambda bb: (
        gpipe_schedule(4, 3, 4), VGG, make_cluster("t4", 4, 1, 1e9, 1e9),
        SimOptions(sync_mode="gpipe", microbatches_per_batch=4,
                   bucket_bytes=bb)),
    "bsp_straggler_nic": lambda bb: (
        data_parallel_schedule(4, 8, num_layers=len(VGG)), VGG, TOPO_A4,
        SimOptions(sync_mode="bsp", worker_speed={1: 0.6},
                   nic_contention=True, bucket_bytes=bb)),
}


class TestBucketedEngineTwins:
    @pytest.mark.parametrize("name", sorted(BUCKETED_SCENARIOS))
    @pytest.mark.parametrize("bucket_bytes", [4e6, 25e6])
    def test_event_matches_reference(self, name, bucket_bytes):
        sched, profile, topo, options = BUCKETED_SCENARIOS[name](bucket_bytes)
        _assert_engines_identical(sched, profile, topo, options)

    def test_bucketing_reduces_exposed_sync(self):
        # The replicated vgg16 front on PCIe: bucketed collectives fire
        # during backward and hide sync under compute the monolithic
        # payload could not.
        stages = [Stage(0, 14, 3), Stage(14, len(VGG), 1)]
        sched = one_f_one_b_rr_schedule(stages, 12)
        base = simulate(sched, VGG, TOPO_A4,
                        SimOptions(sync_mode="pipedream"))
        fused = simulate(sched, VGG, TOPO_A4,
                         SimOptions(sync_mode="pipedream", bucket_bytes=25e6))
        assert fused.sync_exposed[0] < base.sync_exposed[0]
        assert fused.total_time < base.total_time
        # The channel still carries every gradient byte: busy sync time
        # is unchanged, only its placement moved.
        assert fused.sync_busy[0] == pytest.approx(base.sync_busy[0])

    def test_exposed_never_exceeds_busy(self):
        sched = data_parallel_schedule(4, 8, num_layers=len(VGG))
        sim = simulate(sched, VGG, TOPO_A4,
                       SimOptions(sync_mode="bsp", bucket_bytes=4e6))
        for s, exposed in sim.sync_exposed.items():
            assert 0.0 <= exposed <= sim.sync_busy[s] + 1e-12


class TestSendUnderContentionAndFaults:
    """Satellite: ``_send`` with nic_contention and an active bandwidth
    degradation window at once — the factor applies to the contended
    begin time, and both engines agree bitwise."""

    def _run(self, faults, engine):
        stages = [Stage(0, 7, 1), Stage(7, 14, 1), Stage(14, len(VGG), 2)]
        sched = one_f_one_b_rr_schedule(stages, 10)
        options = SimOptions(sync_mode="pipedream", nic_contention=True,
                             faults=faults)
        return ENGINES[engine](sched, VGG, TOPO_A4, options)

    def test_engines_agree_and_fault_slows_transfers(self):
        faults = parse_faults("bw@0.0:x4:d1000", num_workers=4)
        evt = self._run(faults, "event")
        ref = self._run(faults, "reference")
        assert evt.records == ref.records
        assert evt.total_time == ref.total_time
        assert evt.channel_busy == ref.channel_busy
        clean = self._run(None, "event")
        # The whole run sits inside the 4x window: every point-to-point
        # transfer takes exactly 4x its clean duration.
        for link, busy in clean.channel_busy.items():
            assert evt.channel_busy[link] == pytest.approx(4.0 * busy)
        assert evt.total_time > clean.total_time


class TestAnalyticEventAgreement:
    @pytest.mark.parametrize("model", ["vgg16", "gnmt8"])
    @pytest.mark.parametrize("bucket_bytes", [4e6, 25e6])
    def test_bsp_exposed_sync_matches(self, model, bucket_bytes):
        # Uniform BSP rounds: the analytic per-minibatch exposure times
        # the replica count equals the event engine's measured per-round
        # critical-path exposure.
        profile = analytic_profile(model)
        topo = cluster_a(2)
        workers = topo.total_workers
        rounds = 6
        details = evaluate_partition_details(
            profile, [Stage(0, len(profile), workers)], topo,
            bucket_bytes=bucket_bytes)
        sched = data_parallel_schedule(workers, rounds,
                                       num_layers=len(profile))
        sim = simulate(sched, profile, topo,
                       SimOptions(sync_mode="bsp", bucket_bytes=bucket_bytes))
        per_round = sim.sync_exposed[0] / rounds
        assert details.sync_exposed[0] * workers == pytest.approx(
            per_round, rel=1e-9)
        assert details.sync_hidden[0] >= 0.0

    def test_bucketed_evaluation_is_honest(self):
        # The bucketed walk serializes collectives on the sync channel,
        # so it can only price a stage at or above the legacy wait-free
        # lower bound (at α = 0).
        stages = [Stage(0, len(VGG), 4)]
        legacy = evaluate_partition_details(VGG, stages, TOPO_A4)
        for bb in (1e6, 25e6, 1e12):
            fused = evaluate_partition_details(VGG, stages, TOPO_A4,
                                               bucket_bytes=bb)
            assert fused.stage_times[0] >= legacy.stage_times[0] - 1e-12


# ----------------------------------------------------------------------
# 4. Planner pin: bucketing shifts the gnmt8 plan under α > 0
# ----------------------------------------------------------------------
class TestPlanShiftPin:
    def test_gnmt8_backs_off_replication_when_buckets_pay_alpha(self):
        profile = analytic_profile("gnmt8")
        topo = make_cluster("alpha", 4, 4, 12e9, 1.25e9,
                            intra_allreduce_efficiency=0.1,
                            inter_allreduce_efficiency=0.25,
                            intra_allreduce_latency=5e-3,
                            inter_allreduce_latency=5e-3)
        base = PipeDreamOptimizer(profile, topo).solve()
        fused = PipeDreamOptimizer(profile, topo, bucket_bytes=4e6).solve()
        # Monolithic payloads pay α once per round, so wide replica sets
        # survive; per-bucket α makes the 3-way replicas of the encoder
        # stages uneconomical and the solver consolidates them.
        assert base.config_string == "1-3-3-1-1-1-1-1-4"
        assert fused.config_string == "1-8-1-1-1-1-1-1-1"
        assert base.slowest_stage_time == pytest.approx(0.04225, rel=1e-3)
        assert fused.slowest_stage_time == pytest.approx(0.05617, rel=1e-3)
