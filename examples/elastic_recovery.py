"""Elastic recovery: crash a worker mid-run, re-plan warm, resume.

For a grid of models x crash times we run the full elastic control loop
(:class:`~repro.runtime.elastic.ElasticCoordinator`) against the
16-worker Cluster-A: a pinned crash halts the simulated timeline, peers
notice at the next heartbeat, the planner re-solves on the largest
packable surviving sub-cluster warm-started from the healthy plan's
solver context, and training resumes from the last complete checkpoint
boundary.  Each cycle is priced against a fault-free oracle run of the
same workload in minibatches lost.

The smoke mode is the CI gate: it asserts the recovery invariants —
warm re-plan bitwise-equal to a cold solve, positive bounded detection
latency, bounded recovery bill, and a deterministic repeat of every
simulated-time metric.

Artifacts: ``figures/recovery_sweep.csv`` (elastic sweep rows with the
recovery columns filled).

Run:  python examples/elastic_recovery.py [--smoke]
"""

from __future__ import annotations

import argparse
import os

from repro.core.partition import PipeDreamOptimizer
from repro.core.spec import SimSpec
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.runtime import ElasticCoordinator
from repro.sim import (
    FaultEvent,
    FaultSchedule,
    records_to_csv,
    simulate_plan,
)
from repro.utils import format_table

MINIBATCHES = 32
CRASH_WORKER = 5
FULL_MODELS = ("vgg16", "resnet50", "gnmt8")
#: Crash times as fractions of each model's fault-free minibatch horizon
#: (models differ by orders of magnitude in per-minibatch seconds).
FULL_CRASH_FRACTIONS = (0.25, 0.5, 0.75)
SMOKE_BOUND = 8.0  # matches the perf gate on recovery_replan_vgg16


def crash_schedule(crash_time: float) -> FaultSchedule:
    return FaultSchedule([FaultEvent("crash", crash_time, CRASH_WORKER)])


def run_grid(models, crash_fractions):
    topology = cluster_a(4)
    records, rows = [], []
    for model in models:
        profile = analytic_profile(model)
        coordinator = ElasticCoordinator(profile, topology)
        # Fault-free minibatch horizon for this model's plan: crash
        # fractions land inside the run for every model.
        plan = coordinator.optimizer.solve()
        oracle = simulate_plan(
            profile, topology, plan, SimSpec(minibatches=MINIBATCHES))
        horizon = max(oracle.sim.minibatch_done.values())
        for fraction in crash_fractions:
            crash_time = fraction * horizon
            report = coordinator.run_with_recovery(
                MINIBATCHES, crash_schedule(crash_time))
            m = report.metrics
            records.append(report.as_sweep_record(model, "cluster_a"))
            rows.append([
                model, f"{fraction:.2f}", f"{m.detection_latency * 1e3:.0f} ms",
                f"{m.replan_wall_seconds * 1e3:.1f} ms",
                str(m.surviving_workers), m.plan_config,
                str(m.minibatches_completed), str(m.minibatches_resumed),
                f"{m.minibatches_lost:.2f}",
            ])
    print(format_table(
        ["model", "crash frac", "detect", "re-plan", "survivors", "plan",
         "kept", "re-run", "lost vs oracle"], rows
    ))
    print(
        "\nnote: 'lost vs oracle' compares last-minibatch commit clocks.\n"
        "Replicated plans commit minibatches in round-robin bursts, so a\n"
        "short resumed run can land before the oracle's trailing round\n"
        "commits its final members — a negative bill is the model saying\n"
        "the recovery path dodged that tail, not free compute."
    )
    return records


def smoke() -> None:
    """CI-sized single cycle + the recovery invariants."""
    profile = analytic_profile("vgg16")
    topology = cluster_a(4)
    coordinator = ElasticCoordinator(profile, topology)
    faults = crash_schedule(0.5)

    report = coordinator.run_with_recovery(MINIBATCHES, faults)
    m = report.metrics

    # Warm re-plan == cold solve, bitwise.
    cold = PipeDreamOptimizer(profile, topology).solve(m.surviving_workers)
    assert report.new_stages == list(cold.stages), "warm plan != cold plan"

    assert 0.0 < m.detection_latency <= coordinator.heartbeat_interval + 1e-9, \
        "detection latency outside one heartbeat"
    assert 0.0 < m.minibatches_lost <= SMOKE_BOUND, \
        f"recovery bill {m.minibatches_lost:.2f} outside (0, {SMOKE_BOUND}]"

    # Deterministic repeat: every simulated-time field reproduces.
    again = ElasticCoordinator(profile, topology).run_with_recovery(
        MINIBATCHES, faults)
    for field in ("fault_time", "detection_time", "detection_latency",
                  "surviving_workers", "plan_config", "minibatches_completed",
                  "minibatches_resumed", "oracle_seconds"):
        assert getattr(again.metrics, field) == getattr(m, field), field
    assert again.new_stages == report.new_stages

    print(f"recovery smoke ok: crash@{m.fault_time}, detected at "
          f"{m.detection_time}, {m.surviving_workers} survivors, plan "
          f"{m.plan_config}, {m.minibatches_lost:.2f} minibatches lost")


def save_artifacts(records, directory: str = "figures") -> None:
    os.makedirs(directory, exist_ok=True)
    csv_path = os.path.join(directory, "recovery_sweep.csv")
    with open(csv_path, "w") as f:
        f.write(records_to_csv(records))
    print(f"\nartifacts written to {csv_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one crash cycle + invariant asserts (CI-sized)")
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    records = run_grid(FULL_MODELS, FULL_CRASH_FRACTIONS)
    save_artifacts(records)


if __name__ == "__main__":
    main()
