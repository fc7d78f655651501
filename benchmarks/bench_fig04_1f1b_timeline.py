"""Figure 4: PipeDream's 1F1B pipeline — startup phase then steady state.

Four workers, NOAM=4, backward = 2x forward.  Paper shape: after the
startup phase admits four minibatches, every worker alternates forward and
backward passes with no flushes; steady-state throughput is one minibatch
per stage time.
"""

from __future__ import annotations

import pytest

from common import print_header, run_once

from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import OpKind, one_f_one_b_schedule, warmup_count
from repro.core.topology import make_cluster
from repro.sim import simulate
from repro.utils import format_timeline


def run():
    layers = [LayerProfile(f"l{i}", 3.0, 0, 0) for i in range(4)]
    profile = ModelProfile("uniform", layers, batch_size=1)
    topology = make_cluster("fig4", 4, 1, 1e9, 1e9)
    schedule = one_f_one_b_schedule(4, 12)
    return schedule, simulate(schedule, profile, topology)


def report(result) -> None:
    schedule, sim = result
    print_header("Figure 4 — PipeDream 1F1B, 4 workers, NOAM=4")
    print(format_timeline(sim, width=72))
    print(f"\nNOAM: {warmup_count(schedule.stages, 0)}")
    print(f"steady-state throughput: {sim.steady_state_throughput:.3f} "
          f"minibatches/s (per-stage time = 3s -> ideal 0.333)")
    print(f"average utilization: {sim.average_utilization:.1%}")


def test_fig04_steady_state_full(benchmark):
    schedule, sim = run_once(benchmark, run)
    assert warmup_count(schedule.stages, 0) == 4
    # Steady state: one minibatch per stage-time, no flushes.
    assert sim.steady_state_throughput == pytest.approx(1 / 3.0, rel=0.05)
    # Warmup pattern F F F F then alternation on the input stage.
    ops = [o for o in schedule.worker_ops[0] if o.kind != OpKind.UPDATE]
    assert [o.kind.value for o in ops[:6]] == ["F", "F", "F", "F", "B", "F"]


if __name__ == "__main__":
    report(run())
