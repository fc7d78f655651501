"""Strategy drivers and memory accounting (Figures 14, 16, 17, 18)."""

import pytest

from repro.core.partition import Stage, is_data_parallel
from repro.core.spec import SimSpec
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import cluster_a, make_cluster
from repro.profiler import analytic_profile
from repro.sim import (
    data_parallel_memory_footprint,
    pipeline_memory_footprint,
    simulate_data_parallel,
    simulate_gpipe,
    simulate_model_parallel,
    simulate_partition,
    simulate_pipedream,
    simulate_stages,
)
from repro.sim.strategies import balanced_straight_stages, unplanned_stages


@pytest.fixture(scope="module")
def vgg():
    return analytic_profile("vgg16")


@pytest.fixture(scope="module")
def topo():
    return cluster_a(4)  # 16 GPUs


class TestDrivers:
    def test_dp_reports_overhead(self, vgg, topo):
        result = simulate_data_parallel(vgg, topo, num_minibatches=6)
        assert 0.0 < result.communication_overhead < 1.0
        assert result.strategy == "dp"
        assert result.num_workers == 16

    def test_pipedream_beats_dp_on_vgg(self, vgg, topo):
        """The headline Table 1 shape: PipeDream > DP for VGG-16."""
        dp = simulate_data_parallel(vgg, topo, num_minibatches=6)
        pd = simulate_pipedream(vgg, topo, num_minibatches=24)
        assert pd.samples_per_second > 1.5 * dp.samples_per_second

    def test_pipedream_beats_model_parallel(self, vgg, topo):
        """Figure 14a: pipelining alone gives >= 2x over MP."""
        sub = topo.subset(4)
        mp = simulate_model_parallel(vgg, sub, num_minibatches=8)
        pd = simulate_pipedream(vgg, sub, num_minibatches=24)
        assert pd.samples_per_second > 2 * mp.samples_per_second

    def test_gpipe_slower_than_pipedream(self, vgg, topo):
        """§5.4: GPipe's flushes lose throughput at equal pipeline depth."""
        sub = topo.subset(4)
        stages = balanced_straight_stages(vgg, 4)
        gp = simulate_gpipe(vgg, sub, stages=stages, num_batches=6,
                            num_microbatches=4)
        pd = simulate_partition(vgg, sub, stages, num_minibatches=24)
        assert pd.samples_per_second > gp.samples_per_second

    def test_partition_reports_communication(self, vgg, topo):
        # 3-1: conv body replicated, the weight-heavy FC tail isolated — the
        # 4-worker analogue of the paper's 15-1 configuration.
        fc6 = next(i for i, l in enumerate(vgg.layers) if l.name == "fc6")
        stages = [Stage(0, fc6, 3), Stage(fc6, len(vgg), 1)]
        result = simulate_partition(vgg, topo.subset(4), stages, num_minibatches=8)
        dp = simulate_data_parallel(vgg, topo.subset(4), num_minibatches=4)
        # Figure 17: the best non-DP config communicates >85% less than DP
        # for VGG-16.
        assert result.bytes_per_sample < 0.15 * dp.bytes_per_sample

    def test_config_strings(self, vgg, topo):
        stages = [Stage(0, len(vgg) - 1, 3), Stage(len(vgg) - 1, len(vgg), 1)]
        result = simulate_partition(vgg, topo.subset(4), stages, num_minibatches=8)
        assert result.config == "3-1"


class TestSimulateStages:
    """The one dispatch from a stage list to a driver."""

    @pytest.mark.parametrize("strategy", ["dp", "mp", "gpipe"])
    def test_unplanned_stages_run_their_driver(self, vgg, topo, strategy):
        stages = unplanned_stages(strategy, vgg, topo.total_workers)
        got = simulate_stages(vgg, topo, stages, SimSpec(strategy, 4))
        want = {"dp": lambda: simulate_data_parallel(vgg, topo, 4),
                "mp": lambda: simulate_model_parallel(vgg, topo, stages, 4),
                "gpipe": lambda: simulate_gpipe(vgg, topo, stages, 4)}[
                    strategy]()
        assert repr(got) == repr(want)
        assert got.sim.timeline[1:] == want.sim.timeline[1:]

    def test_a_data_parallel_plan_runs_bsp_under_its_name(self, vgg, topo):
        stages = [Stage(0, len(vgg), topo.total_workers)]
        assert is_data_parallel(stages, topo.total_workers)
        got = simulate_stages(vgg, topo, stages, SimSpec("pipedream", 4, "2bp"))
        want = simulate_data_parallel(vgg, topo, 4)
        assert got.strategy == "pipedream" and want.strategy == "dp"
        assert got.config == want.config and got.sim.total_time == \
            want.sim.total_time

    def test_a_pipeline_runs_1f1b_rr(self, vgg, topo):
        stages = [Stage(0, 10, 12), Stage(10, len(vgg), 4)]
        got = simulate_stages(vgg, topo, stages, SimSpec("pipedream", 4, "2bp"))
        want = simulate_partition(vgg, topo, stages, 4, schedule_family="2bp")
        assert repr(got) == repr(want)

    def test_dp_refuses_a_pipeline(self, vgg, topo):
        stages = balanced_straight_stages(vgg, topo.total_workers)
        with pytest.raises(ValueError, match="dp runs one stage"):
            simulate_stages(vgg, topo, stages, SimSpec("dp", 4))

    def test_one_worker_mp_is_not_data_parallel(self, vgg, topo):
        """A one-worker straight pipeline is shaped like DP; the strategy,
        not the shape, picks the mp driver."""
        one = topo.subset(1)
        stages = unplanned_stages("mp", vgg, 1)
        assert is_data_parallel(stages, 1)
        got = simulate_stages(vgg, one, stages, SimSpec("mp", 4))
        assert (got.strategy, got.config) == ("mp", "straight")

    @pytest.mark.parametrize("stages, config", [
        ([Stage(0, 10, 2), Stage(10, 21, 2)], "2-2"),
        ([Stage(0, 10, 1, tp_degree=2), Stage(10, 21, 1)], "1x2-1"),
        ([Stage(0, 21, 4)], "4"),
    ])
    @pytest.mark.parametrize("strategy", ["mp", "gpipe"])
    def test_mp_and_gpipe_refuse_replicated_or_tp_stages(
            self, vgg, strategy, stages, config):
        """Their schedules run one worker per stage: a replicated or
        sharded stage list is refused, not simulated as the straight
        pipeline while reporting the workers it never ran."""
        one = cluster_a(1)
        driver = {"mp": simulate_model_parallel, "gpipe": simulate_gpipe}[
            strategy]
        match = f"{strategy} runs one worker per stage, not '{config}'"
        with pytest.raises(ValueError, match=match):
            driver(vgg, one, stages, 4)
        with pytest.raises(ValueError, match=match):
            simulate_stages(vgg, one, stages, SimSpec(strategy, 4))


class TestRunLengths:
    """A run length below 1 is one ValueError naming the argument, from
    the rule the four drivers share, raised before anything divides by it
    or reports a rate over an empty run."""

    @pytest.mark.parametrize("driver, kwargs, named", [
        (simulate_data_parallel, dict(num_minibatches=0), "num_minibatches"),
        (simulate_data_parallel, dict(num_minibatches=-3), "num_minibatches"),
        (simulate_partition, dict(stages=[Stage(0, 4, 2), Stage(4, 5, 1)],
                                  num_minibatches=0), "num_minibatches"),
        (simulate_partition, dict(stages=[Stage(0, 4, 2), Stage(4, 5, 1)],
                                  num_minibatches=-1), "num_minibatches"),
        (simulate_model_parallel, dict(num_minibatches=0), "num_minibatches"),
        (simulate_gpipe, dict(num_batches=0), "num_batches"),
        (simulate_gpipe, dict(num_batches=-2), "num_batches"),
        (simulate_gpipe, dict(num_microbatches=0), "num_microbatches"),
        (simulate_gpipe, dict(num_microbatches=-1), "num_microbatches"),
        (simulate_gpipe, dict(num_batches=float("nan")), "num_batches"),
    ])
    def test_rejected(self, toy_profile, driver, kwargs, named):
        topo = make_cluster("t3", 3, 1, 1e9, 1e9)
        with pytest.raises(ValueError, match=f"{named} must be >= 1"):
            driver(toy_profile, topo, **kwargs)

    @pytest.mark.parametrize("driver, kwargs", [
        (simulate_data_parallel, dict(num_minibatches=1)),
        (simulate_partition, dict(stages=[Stage(0, 4, 2), Stage(4, 5, 1)],
                                  num_minibatches=1)),
        (simulate_model_parallel, dict(num_minibatches=1)),
        (simulate_gpipe, dict(num_batches=1, num_microbatches=1)),
    ])
    def test_one_is_accepted(self, toy_profile, driver, kwargs):
        topo = make_cluster("t3", 3, 1, 1e9, 1e9)
        result = driver(toy_profile, topo, **kwargs)
        assert 0 < result.epoch_time < float("inf")


class TestBalancedStraightStages:
    def test_covers_model(self, vgg):
        stages = balanced_straight_stages(vgg, 4)
        assert stages[0].start == 0 and stages[-1].stop == len(vgg)
        assert len(stages) == 4

    def test_roughly_balanced(self, vgg):
        stages = balanced_straight_stages(vgg, 4)
        times = [vgg.compute_time(s.start, s.stop) for s in stages]
        assert max(times) < 2.5 * (sum(times) / len(times))

    def test_more_stages_than_layers_clamped(self, toy_profile):
        stages = balanced_straight_stages(toy_profile, 100)
        assert len(stages) == len(toy_profile)


class TestMemoryFootprints:
    def test_pipeline_on_par_with_dp(self, vgg):
        """Figure 16: worst-stage footprint stays the same order as DP's.

        The input stage stashes NOAM copies of its activations, so a
        compute-balanced 4-stage VGG split lands within a small multiple of
        the DP footprint rather than NOAM x the total.
        """
        stages = balanced_straight_stages(vgg, 4)
        pipeline = pipeline_memory_footprint(vgg, stages)
        dp = data_parallel_memory_footprint(vgg)
        assert max(pipeline) < 2.5 * dp
        # Later stages hold progressively less than DP.
        assert pipeline[-1] < dp

    def test_input_stage_stashes_most(self, toy_profile):
        stages = [Stage(0, 3, 1), Stage(3, 4, 1), Stage(4, 5, 1)]
        footprints = pipeline_memory_footprint(toy_profile, stages)
        weights = [toy_profile.weight_bytes(s.start, s.stop) for s in stages]
        # Versions held: 3, 2, 1 respectively.
        depths = [f / (w + a) for f, w, a in zip(
            footprints, weights,
            [1000 + 800 + 600, 100, 50],
        )]
        assert depths == [3, 2, 1]

    def test_depth_override_scales_memory(self, toy_profile):
        stages = [Stage(0, 3, 1), Stage(3, 5, 1)]
        shallow = pipeline_memory_footprint(toy_profile, stages, in_flight=[1, 1])
        deep = pipeline_memory_footprint(toy_profile, stages, in_flight=[4, 4])
        assert all(d == 4 * s for d, s in zip(deep, shallow))

    def test_dp_footprint(self, toy_profile):
        assert data_parallel_memory_footprint(toy_profile) == 9600 + 2550


class TestPipeDreamChoices:
    def test_vgg_isolates_fc_stage(self, vgg, topo):
        """VGG's optimizer output keeps the big-FC tail unreplicated."""
        result = simulate_pipedream(vgg, topo, num_minibatches=16)
        assert result.config != str(topo.total_workers)  # not plain DP

    def test_straight_for_weight_heavy_lm(self, topo):
        lm = analytic_profile("awd-lm")
        result = simulate_pipedream(lm, topo.subset(4), num_minibatches=16)
        assert result.config in ("straight", "1-1-1-1")

    def test_fp16_increases_dp_overhead_ratio(self, topo):
        """Figure 12's shape: fp16 halves bytes but compute per byte ratio
        keeps DP comm-bound; overhead (fraction) stays significant."""
        gnmt = analytic_profile("gnmt8", bytes_per_element=4)
        gnmt16 = analytic_profile("gnmt8", bytes_per_element=2)
        fp32 = simulate_data_parallel(gnmt, topo, num_minibatches=4)
        fp16 = simulate_data_parallel(gnmt16, topo, num_minibatches=4)
        assert fp16.communication_overhead > 0.2
        assert fp32.communication_overhead >= fp16.communication_overhead
