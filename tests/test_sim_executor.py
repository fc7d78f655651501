"""The discrete-event executor: utilization, stalls, strategy ordering."""

import pytest

from repro.core.partition import Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    OpKind,
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    one_f_one_b_schedule,
)
from repro.core.topology import make_cluster
from repro.sim.executor import SimOptions, simulate
from repro.sim.network import Placement, stage_terms


def uniform_profile(n=4, compute=3.0, act=0, weights=0):
    """n identical layers; fwd:bwd = 1:2 by the default split."""
    layers = [LayerProfile(f"l{i}", compute, act, weights) for i in range(n)]
    return ModelProfile("uniform", layers, batch_size=1)


@pytest.fixture
def topo4():
    return make_cluster("t4", 4, 1, 1000.0, 1000.0)


class TestModelParallelBaseline:
    def test_utilization_is_one_over_n(self, topo4):
        """Figure 2: only one worker active at a time."""
        profile = uniform_profile()
        sched = model_parallel_schedule(4, 8)
        sim = simulate(sched, profile, topo4)
        assert sim.average_utilization == pytest.approx(0.25, rel=1e-6)

    def test_total_time_is_serial(self, topo4):
        profile = uniform_profile()
        sched = model_parallel_schedule(4, 5)
        sim = simulate(sched, profile, topo4)
        assert sim.total_time == pytest.approx(5 * profile.total_compute_time)


class TestOneFOneB:
    def test_steady_state_no_bubbles(self, topo4):
        """Figure 4: balanced stages reach full utilization in steady state."""
        profile = uniform_profile()
        sched = one_f_one_b_schedule(4, 32)
        sim = simulate(sched, profile, topo4)
        # Steady-state throughput = 1 / per-stage time.
        assert sim.steady_state_throughput == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_throughput_beats_model_parallel(self, topo4):
        profile = uniform_profile()
        mp = simulate(model_parallel_schedule(4, 16), profile, topo4)
        pd = simulate(one_f_one_b_schedule(4, 16), profile, topo4)
        assert pd.total_time < mp.total_time / 2.5

    def test_startup_phase_visible(self, topo4):
        """The first minibatch takes a full pipeline traversal."""
        profile = uniform_profile()
        sim = simulate(one_f_one_b_schedule(4, 16), profile, topo4)
        first = sim.minibatch_done[0]
        assert first >= 4 * 1.0 + 4 * 2.0  # all forwards + all backwards

    def test_records_cover_all_ops(self, topo4):
        profile = uniform_profile()
        sched = one_f_one_b_schedule(4, 4)
        sim = simulate(sched, profile, topo4)
        fb = [r for r in sim.records if r.op.kind != OpKind.UPDATE]
        assert len(fb) == 2 * 4 * 4

    def test_replicated_stage_processes_in_parallel(self, topo4):
        # 3-1 on a uniform 2-layer profile: stage0 3x replicas.
        layers = [LayerProfile("a", 9.0, 0, 0), LayerProfile("b", 3.0, 0, 0)]
        profile = ModelProfile("m", layers, batch_size=1)
        stages = [Stage(0, 1, 3), Stage(1, 2, 1)]
        sched = one_f_one_b_rr_schedule(stages, 30)
        sim = simulate(sched, profile, topo4)
        # Balanced: both stages sustain 1 minibatch per 3s.
        assert sim.steady_state_throughput == pytest.approx(1 / 3.0, rel=0.1)


class TestCommunication:
    def test_boundary_transfer_delays_pipeline(self):
        topo = make_cluster("slow", 2, 1, 10.0, 10.0)
        layers = [LayerProfile("a", 3.0, 100, 0), LayerProfile("b", 3.0, 10, 0)]
        profile = ModelProfile("m", layers, batch_size=1)
        fast = simulate(one_f_one_b_schedule(2, 8), profile, topo)
        # 100 bytes at 10 B/s = 10s per boundary crossing > 3s compute.
        assert fast.steady_state_throughput < 1.0 / 9.0

    def test_channel_busy_recorded(self):
        topo = make_cluster("slow", 2, 1, 10.0, 10.0)
        layers = [LayerProfile("a", 3.0, 100, 0), LayerProfile("b", 3.0, 10, 0)]
        profile = ModelProfile("m", layers, batch_size=1)
        sim = simulate(one_f_one_b_schedule(2, 4), profile, topo)
        assert sim.channel_busy[(0, 1)] > 0  # activations downstream
        assert sim.channel_busy[(1, 0)] > 0  # gradients upstream

    def test_zero_bytes_no_channels(self, topo4):
        sim = simulate(one_f_one_b_schedule(4, 4), uniform_profile(), topo4)
        assert not sim.channel_busy


class TestDataParallelSemantics:
    def test_no_comm_no_overhead(self, topo4):
        profile = uniform_profile(weights=0)
        sched = data_parallel_schedule(4, 8, num_layers=4)
        sim = simulate(sched, profile, topo4, SimOptions(sync_mode="bsp"))
        assert sim.communication_overhead == pytest.approx(0.0, abs=1e-9)

    def test_allreduce_stall_formula(self):
        """Iteration = fwd + max(bwd, allreduce) under wait-free backprop."""
        topo = make_cluster("t", 4, 1, 10.0, 10.0)
        # One layer: fwd 1, bwd 2; weights 100 bytes.
        layers = [LayerProfile("l", 3.0, 0, 100, forward_time=1.0)]
        profile = ModelProfile("m", layers, batch_size=1)
        sched = data_parallel_schedule(4, 10, num_layers=1)
        sim = simulate(sched, profile, topo, SimOptions(sync_mode="bsp"))
        ar = 2 * 0.75 * 100 / 10.0  # 15s > bwd 2s
        per_iter = 1.0 + max(2.0, ar)
        assert sim.total_time == pytest.approx(10 * per_iter, rel=1e-6)

    def test_overhead_increases_with_weights(self):
        topo = make_cluster("t", 4, 1, 10.0, 10.0)
        def run(wbytes):
            layers = [LayerProfile("l", 3.0, 0, wbytes)]
            profile = ModelProfile("m", layers, batch_size=1)
            sched = data_parallel_schedule(4, 6, num_layers=1)
            return simulate(sched, profile, topo, SimOptions(sync_mode="bsp"))
        low = run(1)
        high = run(1000)
        assert high.communication_overhead > low.communication_overhead


class TestGPipeSemantics:
    def test_flush_gates_next_batch(self, topo4):
        profile = uniform_profile(n=2)
        sched = gpipe_schedule(2, num_batches=3, num_microbatches=2)
        sim = simulate(sched, profile, topo4,
                       SimOptions(sync_mode="gpipe", microbatches_per_batch=2))
        # Batch k+1's first forward starts after batch k's last backward.
        stage0 = [r for r in sim.records if r.worker == 0]
        f_batch1 = next(r for r in stage0
                        if r.op.kind == OpKind.FORWARD and r.op.minibatch == 2)
        b_batch0 = max(r.end for r in sim.records
                       if r.op.kind == OpKind.BACKWARD and r.op.minibatch in (0, 1)
                       and r.op.stage == 0)
        assert f_batch1.start >= b_batch0

    def test_recompute_inflates_backward(self, topo4):
        profile = uniform_profile(n=2)
        sched = gpipe_schedule(2, 2, 2)
        plain = simulate(sched, profile, topo4,
                         SimOptions(sync_mode="gpipe", microbatches_per_batch=2))
        recompute = simulate(sched, profile, topo4,
                             SimOptions(sync_mode="gpipe", microbatches_per_batch=2,
                                        recompute_activations=True))
        assert recompute.total_time > plain.total_time

    def test_gpipe_slower_than_1f1b(self, topo4):
        """§5.4: flushes cost throughput relative to 1F1B."""
        profile = uniform_profile(n=4)
        gp = simulate(gpipe_schedule(4, 8, 4), profile, topo4,
                      SimOptions(sync_mode="gpipe", microbatches_per_batch=4))
        pd = simulate(one_f_one_b_schedule(4, 32), profile, topo4)
        # Same 32 work items in both runs.
        assert pd.total_time < gp.total_time

    def test_one_batch_steady_rate_is_the_whole_run_rate(self, topo4):
        """One batch's backward drains its microbatches last to first, so
        by minibatch id the second half of completions has a negative
        span; the steady rate falls back to the whole-run rate."""
        sim = simulate(gpipe_schedule(4, 1, 4), uniform_profile(n=4), topo4,
                       SimOptions(sync_mode="gpipe", microbatches_per_batch=4))
        done = [sim.minibatch_done[b] for b in sorted(sim.minibatch_done)]
        assert done == sorted(done, reverse=True)
        assert sim.steady_state_throughput == sim.throughput < float("inf")


class TestStageComputeTimes:
    def test_split_and_scale(self, toy_profile):
        def split(stages, compute_scale=1.0):
            placement = Placement(make_cluster(
                "t", 2, 1, 1.0, 1.0, compute_scale=compute_scale))
            terms = stage_terms(placement, toy_profile, stages,
                                [[s] for s in range(len(stages))])
            return [x.forward for x in terms], [x.backward for x in terms]

        fwd, bwd = split([Stage(0, 3, 1), Stage(3, 5, 1)])
        assert fwd[0] + bwd[0] == pytest.approx(9.0)
        assert fwd[1] + bwd[1] == pytest.approx(3.0)
        fwd2, bwd2 = split([Stage(0, 5, 1)], compute_scale=2.0)
        assert fwd2[0] + bwd2[0] == pytest.approx(6.0)

    def test_invalid_sync_mode_rejected(self):
        with pytest.raises(ValueError):
            SimOptions(sync_mode="wat")

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="speed must be finite and > 0"):
            SimOptions(worker_speed={0: speed})

    @pytest.mark.parametrize("bucket", [float("nan"), 0.0, -5.0])
    def test_nan_or_non_positive_bucket_bytes_rejected(self, bucket):
        with pytest.raises(ValueError, match="bucket_bytes must be > 0"):
            SimOptions(bucket_bytes=bucket)
