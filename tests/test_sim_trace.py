"""Chrome-trace export and straggler modelling."""

import json

import pytest

from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import one_f_one_b_schedule, split_backward_schedule
from repro.core.topology import make_cluster
from repro.sim import SimOptions, chrome_trace_events, export_chrome_trace, simulate
from repro.utils import format_timeline


@pytest.fixture
def sim_result():
    layers = [LayerProfile(f"l{i}", 3.0, 0, 0) for i in range(3)]
    profile = ModelProfile("m", layers, batch_size=1)
    topology = make_cluster("t", 3, 1, 1e9, 1e9)
    return simulate(one_f_one_b_schedule(3, 6), profile, topology)


class TestChromeTrace:
    def test_events_cover_all_ops(self, sim_result):
        events = chrome_trace_events(sim_result)
        complete = [e for e in events if e["ph"] == "X"]
        # 6 minibatches x 3 stages x (F + B); zero-length updates dropped.
        assert len(complete) == 36

    def test_thread_metadata(self, sim_result):
        events = chrome_trace_events(sim_result)
        names = [e for e in events if e["ph"] == "M"]
        assert {e["tid"] for e in names} == {0, 1, 2}

    def test_durations_positive_and_ordered(self, sim_result):
        for event in chrome_trace_events(sim_result):
            if event["ph"] == "X":
                assert event["dur"] > 0
                assert event["ts"] >= 0

    def test_export_writes_valid_json(self, sim_result, tmp_path):
        path = export_chrome_trace(sim_result, str(tmp_path / "trace.json"))
        data = json.loads(open(path).read())
        assert "traceEvents" in data
        assert len(data["traceEvents"]) > 0


def test_2bp_grad_weight_ops_are_their_own_kind_in_both_exporters():
    """A 2BP run's W ops get their own trace category and colour, and their
    own timeline glyph, rather than a KeyError or the forward's ``F``."""
    layers = [LayerProfile(f"l{i}", 3.0, 0, 0) for i in range(2)]
    profile = ModelProfile("m", layers, batch_size=1)
    topology = make_cluster("t", 2, 1, 1e9, 1e9)
    sim = simulate(split_backward_schedule(one_f_one_b_schedule(2, 4)),
                   profile, topology)
    ops = [e for e in chrome_trace_events(sim) if e["ph"] == "X"]
    by_cat = {}
    for event in ops:
        by_cat.setdefault(event["cat"], set()).add(event["cname"])
    assert set(by_cat) == {"forward", "backward", "backward_w"}
    assert len({color for (color,) in by_cat.values()}) == 3
    assert sum(e["cat"] == "backward_w" for e in ops) == 2 * 4
    rows = format_timeline(sim, width=120).splitlines()
    assert all("W" in row for row in rows)
    assert {glyph for row in rows for glyph in row.split(": ")[1]
            if not glyph.isdigit()} == {".", "F", "B", "W"}


class TestStragglers:
    def _run(self, worker_speed=None):
        layers = [LayerProfile(f"l{i}", 3.0, 0, 0) for i in range(4)]
        profile = ModelProfile("m", layers, batch_size=1)
        topology = make_cluster("t", 4, 1, 1e9, 1e9)
        options = SimOptions(worker_speed=worker_speed)
        return simulate(one_f_one_b_schedule(4, 24), profile, topology, options)

    def test_uniform_speed_unchanged(self):
        base = self._run()
        same = self._run(worker_speed={w: 1.0 for w in range(4)})
        assert same.total_time == pytest.approx(base.total_time)

    def test_straggler_bottlenecks_pipeline(self):
        """A 2x-slow stage halves steady-state throughput (the pipeline is
        only as fast as its slowest stage, §3.1)."""
        base = self._run()
        slowed = self._run(worker_speed={1: 0.5})
        assert slowed.steady_state_throughput == pytest.approx(
            base.steady_state_throughput / 2, rel=0.1
        )

    def test_faster_worker_does_not_help_alone(self):
        """Speeding up one stage cannot beat the remaining bottleneck."""
        base = self._run()
        boosted = self._run(worker_speed={1: 4.0})
        assert boosted.steady_state_throughput == pytest.approx(
            base.steady_state_throughput, rel=0.1
        )

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            SimOptions(worker_speed={0: 0.0})


class TestNicContention:
    def _run(self, contention, minibatches=4):
        """One producer fanning out to two consumers stresses its send NIC:
        the warmup burst emits back-to-back activations to different
        replicas, which overlap on independent channels but serialize on a
        single NIC."""
        from repro.core.partition import Stage
        from repro.core.schedule import one_f_one_b_rr_schedule

        layers = [LayerProfile("a", 3.0, 1000, 0), LayerProfile("b", 3.0, 10, 0)]
        profile = ModelProfile("m", layers, batch_size=1)
        stages = [Stage(0, 1, 1), Stage(1, 2, 2)]
        schedule = one_f_one_b_rr_schedule(stages, minibatches)
        topology = make_cluster("t", 3, 1, 100.0, 100.0)  # 10 s per transfer
        return simulate(schedule, profile, topology,
                        SimOptions(nic_contention=contention))

    def test_contention_never_faster(self):
        free = self._run(False)
        contended = self._run(True)
        assert contended.total_time >= free.total_time

    def test_fanout_burst_serializes(self):
        """The warmup burst's two transfers leave 10 s apart instead of
        concurrently, delaying minibatch 1's first arrival by ~one transfer."""
        free = self._run(False)
        contended = self._run(True)
        delay = contended.minibatch_done[1] - free.minibatch_done[1]
        assert delay >= 6.0
        assert contended.minibatch_done[2] - free.minibatch_done[2] >= 8.0

    def test_straight_pipeline_unaffected(self):
        """One flow per NIC direction: contention changes nothing."""
        from repro.core.schedule import one_f_one_b_schedule

        layers = [LayerProfile("a", 3.0, 1000, 0), LayerProfile("b", 3.0, 10, 0)]
        profile = ModelProfile("m", layers, batch_size=1)
        topology = make_cluster("t", 2, 1, 100.0, 100.0)
        schedule = one_f_one_b_schedule(2, 6)
        free = simulate(schedule, profile, topology, SimOptions())
        contended = simulate(schedule, profile, topology,
                             SimOptions(nic_contention=True))
        assert contended.total_time == free.total_time

    def test_default_off(self):
        assert SimOptions().nic_contention is False
