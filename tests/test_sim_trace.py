"""Chrome-trace export and straggler modelling."""

import hashlib
import json

import pytest

from repro.core.partition import Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    data_parallel_schedule,
    one_f_one_b_rr_schedule,
    one_f_one_b_schedule,
    schedule_for_family,
    split_backward_schedule,
)
from repro.core.topology import cluster_a, make_cluster
from repro.profiler import analytic_profile
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


class TestOutputsPinned:
    """Both exporters read the timeline in one pass; their output is
    pinned byte for byte to the sha256 of the per-worker-pass exporters
    they replaced."""

    @staticmethod
    def _runs():
        vgg = analytic_profile("vgg16")
        topology = cluster_a(1)
        rr = one_f_one_b_rr_schedule([Stage(0, 10, 2), Stage(10, len(vgg), 2)],
                                     12)
        return {
            "1f1b_rr": simulate(rr, vgg, topology),
            "2bp": simulate(schedule_for_family(rr, "2bp"), vgg, topology),
            # Fault-free one-stage BSP: one row simulated, fanned out.
            "bsp_fanout": simulate(
                data_parallel_schedule(4, 6, num_layers=len(vgg)), vgg,
                topology, SimOptions(sync_mode="bsp")),
        }

    @staticmethod
    def _sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def test_format_timeline(self):
        assert {name: self._sha(format_timeline(sim, width=120))
                for name, sim in self._runs().items()} == {
            "1f1b_rr": "5e831538e95a9671110eaded8195dce0"
                       "a195ac5dfe54780480c52b7d8a8716cf",
            "2bp": "6ba70859f10cd94196c306d3932f7e98"
                   "578dac9ae1e2e7252806468483d1e3de",
            "bsp_fanout": "c3cca89eec2ee8304a1256e9bb8a5bdd"
                          "b4f597f8781651c304cfd97baba74d8a",
        }

    def test_chrome_trace_events(self):
        events = chrome_trace_events(self._runs()["2bp"])
        assert self._sha(json.dumps(events)) == (
            "03c92081bcf85c3e71d16901b7d159b3"
            "049687f485a383332f12ca7c4b35022e")


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
