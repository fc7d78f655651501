"""Figure 15: real vs. optimizer-predicted throughput for VGG-16, 16 workers.

Many candidate configurations (vanilla DP, straight pipelines, replicated
variants, and the optimizer's pick) are evaluated twice: with the §3.1 cost
model and with the discrete-event simulator.  Paper shape: predicted and
real throughputs are strongly linearly correlated, and the optimizer's
choice is the best of the candidates.
"""

from __future__ import annotations

import numpy as np

from common import print_header, print_rows, run_once

from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_on_topology,
)
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.sim import simulate_data_parallel, simulate_partition
from repro.sim.strategies import balanced_straight_stages


def _candidates(profile, plan):
    n = len(profile)
    fc6 = next(i for i, l in enumerate(profile.layers) if l.name == "fc6")
    configs = {
        "16 (DP)": [Stage(0, n, 16)],
        "straight": balanced_straight_stages(profile, 16),
        "15-1": [Stage(0, fc6, 15), Stage(fc6, n, 1)],
        "12-4": [Stage(0, fc6, 12), Stage(fc6, n, 4)],
        "8-8": [Stage(0, fc6, 8), Stage(fc6, n, 8)],
        "14-2": [Stage(0, fc6, 14), Stage(fc6, n, 2)],
        "4-stage 4-4-4-4": _even_replicated(profile, 4, 4),
        f"optimizer ({plan.config_string})": plan.stages,
    }
    return configs


def _even_replicated(profile, num_stages, replicas):
    stages = balanced_straight_stages(profile, num_stages)
    return [Stage(s.start, s.stop, replicas) for s in stages]


def run():
    profile = analytic_profile("vgg16")
    topology = cluster_a(4)
    plan = PipeDreamOptimizer(profile, topology).solve()
    flat = topology.flat()

    points = []
    for name, stages in _candidates(profile, plan).items():
        predicted = 1.0 / evaluate_partition_on_topology(profile, stages, flat)
        if len(stages) == 1:
            sim = simulate_data_parallel(profile, topology, num_minibatches=8)
            real = sim.throughput * 16  # 16 minibatches per DP round
        else:
            real = simulate_partition(profile, topology, stages,
                                      num_minibatches=64).throughput
        points.append((name, predicted, real))
    return points


def report(points) -> None:
    print_header("Figure 15 — predicted vs. simulated throughput (VGG-16, 16 workers)")
    rows = [
        [name, f"{pred:.2f} mb/s", f"{real:.2f} mb/s"]
        for name, pred, real in points
    ]
    print_rows(["configuration", "predicted", "simulated"], rows)
    preds = [p for _, p, _ in points]
    reals = [r for _, _, r in points]
    corr = np.corrcoef(preds, reals)[0, 1]
    print(f"\nlinear correlation: r = {corr:.3f}")


def test_fig15_predictions_correlate(benchmark):
    points = run_once(benchmark, run)
    preds = np.array([p for _, p, _ in points])
    reals = np.array([r for _, _, r in points])
    corr = np.corrcoef(preds, reals)[0, 1]
    assert corr > 0.9
    # The optimizer's configuration is (near-)best among the candidates.
    optimizer_real = next(r for name, _, r in points if name.startswith("optimizer"))
    assert optimizer_real >= 0.9 * reals.max()


if __name__ == "__main__":
    report(run())
