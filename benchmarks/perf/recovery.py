"""Elastic-recovery workload: crash a worker, re-plan warm, resume.

``recovery_replan_vgg16`` pins the recovery hot path into
``BENCH_perf.json``:

- headline seconds: one full crash/detect/re-plan/resume cycle on
  vgg16 @ cluster A (fault-free oracle + crash-interrupted run + warm
  re-plan + resumed run on the surviving 12 workers).
- ``warm_replan_speedup`` — re-planning on the degraded topology from
  the full plan's warm :class:`SolverContext` vs a cold
  :class:`PipeDreamOptimizer` solve.  Gated at >= 5x by
  ``tools/check_perf.py`` (``gated_bounds``), with bitwise plan parity
  boolean-gated alongside it.
- ``minibatches_lost_vs_oracle`` — the recovery bill of the pinned
  mid-run crash, in units of oracle minibatches, read off the simulated
  clock only (the re-plan's wall time is reported, not billed).
  Bounded above, so a regression in detection, checkpoint cadence or
  the resumed plan's quality fails the gate.

The fault schedule is pinned (not seeded) so the recorded numbers track
one fixed scenario across PRs.
"""

from __future__ import annotations

from perf.harness import best_of, workload

from repro.core.partition import PipeDreamOptimizer, SolverContext
from repro.core.spec import SimSpec
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.runtime.elastic import ElasticCoordinator, surviving_worker_count
from repro.sim.faults import FaultEvent, FaultSchedule

#: Mid-run crash of worker 5 on the 16-worker cluster; 32 minibatches.
CRASH_TIME = 0.5
CRASH_WORKER = 5
MINIBATCHES = 32
#: Upper bound on the recovery bill for the pinned scenario.  The cycle
#: measures ~3.1 lost minibatches (detection + re-run on 12 survivors),
#: the same on every run; 8 is the bound a real regression (lost
#: checkpoint cadence, worse recovery plan) crosses.
LOST_BOUND = 8.0


@workload("recovery_replan_vgg16")
def recovery_replan_vgg16():
    profile = analytic_profile("vgg16")
    topology = cluster_a(4)
    sim = SimSpec(minibatches=MINIBATCHES, faults=FaultSchedule(
        [FaultEvent("crash", CRASH_TIME, CRASH_WORKER)]))
    survivors = surviving_worker_count(topology, 1)

    # Re-plan speed: warm (full plan's SolverContext) vs cold, both
    # solving the degraded worker count.  Parity must be bitwise.
    context = SolverContext(profile)
    warm_optimizer = PipeDreamOptimizer(profile, topology, context=context)
    warm_optimizer.solve()  # the healthy-cluster plan warms the tables
    cold_seconds = best_of(
        lambda: PipeDreamOptimizer(profile, topology).solve(survivors),
        repeats=3)
    warm_seconds = best_of(
        lambda: warm_optimizer.solve(survivors), repeats=5)
    warm_plan = warm_optimizer.solve(survivors)
    cold_plan = PipeDreamOptimizer(profile, topology).solve(survivors)
    parity = (warm_plan.stages == cold_plan.stages
              and warm_plan.slowest_stage_time == cold_plan.slowest_stage_time)
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")

    # The full cycle, warm coordinator reused across repeats (steady
    # state: the context is already hot when a real crash arrives).
    coordinator = ElasticCoordinator(profile, topology, context=context)
    reports = []

    def cycle():
        reports.append(coordinator.run_with_recovery(sim))

    seconds = best_of(cycle, repeats=3)
    metrics = reports[-1].metrics

    detail = {
        "cold_replan_seconds": cold_seconds,
        "warm_replan_seconds": warm_seconds,
        "warm_replan_speedup": speedup,
        "warm_plan_bitwise_equals_cold": parity,
        "surviving_workers": metrics.surviving_workers,
        "recovery_plan": metrics.plan_config,
        "detection_latency_s": metrics.detection_latency,
        "minibatches_resumed": metrics.minibatches_resumed,
        "minibatches_lost_vs_oracle": metrics.minibatches_lost,
        "gated_bounds": {
            "warm_replan_speedup": {"value": speedup, "min": 5.0},
            "minibatches_lost_vs_oracle": {
                "value": metrics.minibatches_lost, "max": LOST_BOUND},
        },
    }
    return seconds, detail
