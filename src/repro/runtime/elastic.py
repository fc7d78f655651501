"""Elastic pipelines: crash detection, warm re-planning, checkpoint resume.

The control loop closes the gap between the fault injector
(:mod:`repro.sim.faults`) and the planner/runtime stack:

1. **Detect** — workers heartbeat on a fixed cadence; a crash at time
   ``t`` is noticed at the first heartbeat boundary strictly after ``t``
   (deterministic detection latency, no randomness).
2. **Re-plan** — solve the partitioning problem again, under the same
   :class:`~repro.core.spec.PlanSpec`, on the largest packable surviving
   sub-cluster, warm-started from the previous plan's
   :class:`~repro.core.partition.SolverContext`.  Warm and cold plans
   are bitwise-equal (``tests/test_elastic.py``); warmth only buys
   wall-clock time.
3. **Resume** — remap the per-stage checkpoints the runtime already
   writes onto the new partition (stage state keys are stage-relative
   ``"{layer_offset}.{param}"``, so remapping is key arithmetic, no
   tensor surgery) and restart training on the surviving topology.

Every run of the cycle — the fault-free oracle, the crash-interrupted run
and the resumed run — is the scenario's :class:`~repro.core.spec.SimSpec`
over a solved plan's stages through
:func:`~repro.sim.strategies.simulate_stages`, the one dispatch every
other surface simulates through.  Recovery cost is reported as
:class:`RecoveryMetrics` against the oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import (
    PartitionResult, PipeDreamOptimizer, SolverContext, Stage,
)
from repro.core.spec import PlanSpec, SimSpec, check_scenario
from repro.core.topology import Topology
from repro.sim.strategies import StrategyResult, simulate_stages
from repro.sim.sweep import SweepRecord

__all__ = [
    "ElasticCoordinator",
    "RecoveryMetrics",
    "RecoveryReport",
    "consolidated_layer_states",
    "remap_checkpoints",
    "restore_remapped",
    "stage_states_for",
    "surviving_worker_count",
]


def surviving_worker_count(topology: Topology, failed: int) -> int:
    """Largest worker count <= (total - failed) that packs onto the
    topology innermost-first (``Topology.subset`` rejects counts that
    straddle a server boundary unevenly)."""
    alive = topology.total_workers - failed
    for count in range(alive, 0, -1):
        try:
            topology.subset(count)
        except ValueError:
            continue
        return count
    raise ValueError(f"no packable sub-cluster with <= {alive} workers")


@dataclass(frozen=True)
class RecoveryMetrics:
    """What one crash/re-plan/resume cycle cost (vs a fault-free oracle).

    Every field but ``replan_wall_seconds`` reads the simulated clock
    only: the fault timeline, detection and the resumed execution, so
    ``recovery_total_seconds`` (the crash-free prefix, the detection
    downtime and the resumed run) and ``minibatches_lost`` reproduce
    bitwise from run to run.  The re-plan runs on the host; its wall
    clock is reported in ``replan_wall_seconds`` beside them and charged
    to no simulated field.
    """

    fault_time: float  # sim seconds: when the worker crashed
    detection_time: float  # sim seconds: first missed heartbeat boundary
    detection_latency: float  # detection_time - fault_time
    replan_wall_seconds: float  # warm-started re-plan, host wall clock
    surviving_workers: int  # workers the new plan runs on
    plan_config: str  # replica signature of the recovery plan
    minibatches_completed: int  # finished before the crash
    minibatches_resumed: int  # re-run + remaining after resume
    recovery_total_seconds: float  # sim: crash-free prefix + detection + resumed run
    oracle_seconds: float  # sim: fault-free run of the same workload
    minibatches_lost: float  # extra time, in units of oracle minibatches


@dataclass
class RecoveryReport:
    """Everything one crash/re-plan/resume cycle produced."""

    metrics: RecoveryMetrics
    faulted: StrategyResult  # the run the crash cut short
    resumed: StrategyResult  # the post-recovery run
    oracle: StrategyResult  # fault-free run of the same workload
    old_stages: List[Stage]
    new_stages: List[Stage]

    def as_sweep_record(self, model: str, cluster: str) -> SweepRecord:
        """The resumed run as a sweep row, recovery columns filled."""
        m = self.metrics
        r = self.resumed
        return SweepRecord(
            model=model,
            cluster=cluster,
            workers=r.num_workers,
            strategy="elastic",
            config=r.config,
            samples_per_second=r.samples_per_second,
            communication_overhead=r.communication_overhead,
            bytes_per_sample=r.bytes_per_sample,
            peak_memory_gb=max(r.memory_per_worker) / 1e9,
            detection_latency=m.detection_latency,
            replan_seconds=m.replan_wall_seconds,
            minibatches_lost=m.minibatches_lost,
        )


class ElasticCoordinator:
    """Detect a crash, re-plan warm, resume — and price each step.

    The healthy plan and every re-plan are solved under ``plan`` on one
    private warm :class:`SolverContext` (``context``, or a fresh one).
    """

    def __init__(
        self,
        profile,
        topology: Topology,
        plan: PlanSpec = PlanSpec(),
        heartbeat_interval: float = 0.05,
        context: Optional[SolverContext] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.profile = profile
        self.topology = topology
        self.plan = plan
        self.heartbeat_interval = heartbeat_interval
        self.context = context if context is not None else SolverContext(profile)
        self.optimizer = PipeDreamOptimizer(
            profile, topology, context=self.context, **plan.options())

    # -- detection ------------------------------------------------------
    def detection_time(self, crash_time: float) -> float:
        """First heartbeat boundary strictly after the crash: peers notice
        the missed beat there.  Deterministic in the crash time."""
        beats = math.floor(crash_time / self.heartbeat_interval) + 1
        return beats * self.heartbeat_interval

    # -- re-planning ----------------------------------------------------
    def replan(self, num_workers: int) -> Tuple[PartitionResult, float]:
        """Plan for ``num_workers`` survivors, warm-started from this
        coordinator's :class:`SolverContext`: (plan, wall seconds)."""
        begin = time.perf_counter()
        plan = self.optimizer.solve(num_workers)
        return plan, time.perf_counter() - begin

    # -- the full cycle -------------------------------------------------
    def run_with_recovery(
        self, sim: SimSpec, checkpoint_every: int = 1,
    ) -> RecoveryReport:
        """Simulate the crash-interrupted run ``sim``, recover, and price it.

        ``sim.faults`` must hold a crash; the oracle and the resumed run
        are ``sim`` without faults.  ``checkpoint_every`` is the
        stage-checkpoint cadence in minibatches (§4 checkpoints without
        coordination): work since the last boundary is lost and re-run on
        the surviving cluster.
        """
        check_scenario(self.plan, sim)
        if sim.strategy != "pipedream":
            raise ValueError(
                "crash recovery re-plans the pipedream strategy only, not "
                f"{sim.strategy!r}")
        faults = sim.faults
        if faults is None or faults.halt_time is None:
            raise ValueError("fault schedule has no crash to recover from")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        profile, topology = self.profile, self.topology
        bucket_bytes = self.plan.bucket_bytes
        healthy = self.optimizer.solve()
        fault_free = replace(sim, faults=None)

        oracle = simulate_stages(profile, topology, healthy.stages,
                                 fault_free, bucket_bytes)
        faulted = simulate_stages(profile, topology, healthy.stages, sim,
                                  bucket_bytes)
        crash_time = faulted.sim.halted_at
        if crash_time is None:
            raise ValueError(
                f"crash at t={faults.halt_time} lands after the "
                f"{sim.minibatches}-minibatch run already finished — "
                "nothing to recover")

        detection = self.detection_time(crash_time)
        failed = set(faults.crashed_workers(crash_time))
        survivors = surviving_worker_count(topology, len(failed))
        try:
            recovery, replan_seconds = self.replan(survivors)
        except RuntimeError as exc:
            raise RuntimeError(
                f"re-plan on {survivors} surviving workers after the crash "
                f"at t={crash_time:g} failed: {exc}") from exc

        # Work since the last checkpoint boundary is lost; the survivors
        # re-run it plus everything the crash preempted.  The last
        # minibatch is always re-run: its trailing update rounds can't be
        # attested complete after the crash.
        completed = min(len(faulted.sim.minibatch_done), sim.minibatches - 1)
        kept = (completed // checkpoint_every) * checkpoint_every
        resumed_count = sim.minibatches - kept

        resumed = simulate_stages(
            profile, topology.subset(survivors), recovery.stages,
            replace(fault_free, minibatches=resumed_count), bucket_bytes)

        # Detection lands on the simulated critical path; the resumed run
        # then starts from zero pipeline state.  The re-plan's host wall
        # clock is reported beside the bill, never added to it, so every
        # simulated field reproduces however fast the planner runs.
        # Completion clocks compare when the last *minibatch* finishes —
        # total_time also counts trailing weight syncs, which both runs
        # pay and which would mask the recovery gap.
        oracle_done = max(oracle.sim.minibatch_done.values())
        recovery_total = detection + max(resumed.sim.minibatch_done.values())
        oracle_rate = sim.minibatches / oracle_done
        lost = (recovery_total - oracle_done) * oracle_rate

        metrics = RecoveryMetrics(
            fault_time=crash_time,
            detection_time=detection,
            detection_latency=detection - crash_time,
            replan_wall_seconds=replan_seconds,
            surviving_workers=survivors,
            plan_config=resumed.config,
            minibatches_completed=kept,
            minibatches_resumed=resumed_count,
            recovery_total_seconds=recovery_total,
            oracle_seconds=oracle.sim.total_time,
            minibatches_lost=lost,
        )
        return RecoveryReport(
            metrics=metrics,
            faulted=faulted,
            resumed=resumed,
            oracle=oracle,
            old_stages=list(healthy.stages),
            new_stages=list(recovery.stages),
        )


# ----------------------------------------------------------------------
# Checkpoint remapping: old partition -> new partition, key arithmetic
# ----------------------------------------------------------------------
# Stage checkpoints key parameters stage-relatively: stage s covering
# model layers [start, stop) stores layer ``start + i`` under
# ``"{i}.{param_path}"`` (``LayeredModel.stage_module`` names Sequential
# children "0", "1", ...).  Re-partitioning is therefore pure index
# translation on the key strings.

def consolidated_layer_states(
    manager, stages: Sequence[Stage], epoch: int
) -> List[Dict[str, np.ndarray]]:
    """Per-model-layer parameter dicts reassembled from the per-stage
    checkpoints of ``epoch`` (replica 0 — post-round replicas are
    identical, and a complete epoch guarantees every round committed)."""
    num_layers = max(stage.stop for stage in stages)
    layers: List[Dict[str, np.ndarray]] = [{} for _ in range(num_layers)]
    for s, stage in enumerate(stages):
        state = manager.load_stage(s, 0, epoch)
        for key, value in state.items():
            offset, _, param_path = key.partition(".")
            layers[stage.start + int(offset)][param_path] = value
    return layers


def stage_states_for(
    layers: Sequence[Dict[str, np.ndarray]], stages: Sequence[Stage]
) -> List[Dict[str, np.ndarray]]:
    """Reassemble per-layer dicts into per-stage state for ``stages``."""
    states = []
    for stage in stages:
        state: Dict[str, np.ndarray] = {}
        for j in range(stage.start, stage.stop):
            for param_path, value in layers[j].items():
                state[f"{j - stage.start}.{param_path}"] = value
        states.append(state)
    return states


def remap_checkpoints(
    src_manager,
    old_stages: Sequence[Stage],
    dst_manager,
    new_stages: Sequence[Stage],
    epoch: Optional[int] = None,
) -> int:
    """Rewrite the newest complete old-partition checkpoint as a complete
    new-partition checkpoint (same epoch number) in ``dst_manager``.

    The destination must be a different directory — checkpoint filenames
    only encode (stage, replica, epoch), so writing a re-partitioned
    epoch into the source directory would clobber the originals.
    Returns the remapped epoch.
    """
    if src_manager.directory == dst_manager.directory:
        raise ValueError("remap needs a distinct destination directory")
    if epoch is None:
        epoch = src_manager.latest_complete_epoch(
            len(old_stages), [s.replicas for s in old_stages])
        if epoch is None:
            raise ValueError("no complete checkpoint to remap")
    layers = consolidated_layer_states(src_manager, old_stages, epoch)
    for s, (stage, state) in enumerate(
            zip(new_stages, stage_states_for(layers, new_stages))):
        for q in range(stage.replicas):
            dst_manager.save_stage(s, q, epoch, state)
    dst_manager.mark_epoch_complete(
        epoch, len(new_stages), [s.replicas for s in new_stages])
    return epoch


def restore_remapped(trainer, manager, old_stages: Sequence[Stage]) -> Optional[int]:
    """Resume ``trainer`` (already built on the *new* partition) from the
    newest complete checkpoint an *old*-partition run left in ``manager``.

    Returns the restored epoch, or None (weights untouched) when the old
    run never completed a checkpoint — the §4 restart rule, applied
    across a re-partitioning.
    """
    epoch = manager.latest_complete_epoch(
        len(old_stages), [s.replicas for s in old_stages])
    if epoch is None:
        return None
    layers = consolidated_layer_states(manager, old_stages, epoch)
    trainer.load_stage_states(stage_states_for(layers, trainer.stages))
    return epoch
