"""Elastic pipelines: crash detection, warm re-planning, checkpoint resume.

The control loop closes the gap between the fault injector
(:mod:`repro.sim.faults`) and the planner/runtime stack:

1. **Detect** — workers heartbeat on a fixed cadence; a crash at time
   ``t`` is noticed at the first heartbeat boundary strictly after ``t``
   (deterministic detection latency, no randomness).
2. **Re-plan** — solve the partitioning problem again on the largest
   packable surviving sub-cluster, warm-started from the previous plan's
   :class:`~repro.core.partition.SolverContext` (or through a
   :class:`~repro.serve.PlannerService`, whose plan cache answers repeat
   recoveries).  Warm and cold plans are bitwise-equal
   (``tests/test_elastic.py``); warmth only buys wall-clock time.
3. **Resume** — remap the per-stage checkpoints the runtime already
   writes onto the new partition (stage state keys are stage-relative
   ``"{layer_offset}.{param}"``, so remapping is key arithmetic, no
   tensor surgery) and restart training on the surviving topology.

Recovery cost is reported as :class:`~repro.sim.strategies.RecoveryMetrics`
against a fault-free oracle run of the same workload.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import PipeDreamOptimizer, SolverContext, Stage
from repro.core.spec import SimSpec
from repro.core.topology import Topology
from repro.sim.faults import FaultSchedule
from repro.sim.strategies import (
    RecoveryMetrics,
    StrategyResult,
    _simulate_stages,
)
from repro.sim.sweep import SweepRecord

__all__ = [
    "ElasticCoordinator",
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


@dataclass
class RecoveryReport:
    """Everything one crash/re-plan/resume cycle produced."""

    metrics: RecoveryMetrics
    faulted: StrategyResult  # the run the crash cut short
    resumed: StrategyResult  # the post-recovery run (recovery metrics attached)
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

    ``service`` (a :class:`~repro.serve.PlannerService`) makes re-plan
    requests go through the planner service's canonical request path, so
    repeat recoveries on the same degraded shape are answered from its
    plan cache.  Without it, the coordinator solves directly on a
    private warm :class:`SolverContext`.
    """

    def __init__(
        self,
        profile,
        topology: Topology,
        heartbeat_interval: float = 0.05,
        allow_replication: bool = True,
        service=None,
        context: Optional[SolverContext] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.profile = profile
        self.topology = topology
        self.heartbeat_interval = heartbeat_interval
        self.service = service
        self.context = context if context is not None else SolverContext(profile)
        self.optimizer = PipeDreamOptimizer(
            profile, topology,
            allow_replication=allow_replication,
            context=self.context,
        )

    # -- detection ------------------------------------------------------
    def detection_time(self, crash_time: float) -> float:
        """First heartbeat boundary strictly after the crash: peers notice
        the missed beat there.  Deterministic in the crash time."""
        beats = math.floor(crash_time / self.heartbeat_interval) + 1
        return beats * self.heartbeat_interval

    # -- re-planning ----------------------------------------------------
    def replan(self, num_workers: int) -> Tuple[List[Stage], float, bool]:
        """Plan for ``num_workers`` survivors: (stages, wall seconds,
        answered-from-cache).  Warm-started either way — through the
        planner service's cache + context pool, or this coordinator's own
        :class:`SolverContext`."""
        begin = time.perf_counter()
        if self.service is not None:
            from repro.serve import topology_to_dict

            payload = self.service.plan({
                "profile": self.profile.to_dict(),
                "topology": topology_to_dict(self.topology),
                "num_workers": num_workers,
                **dict(self.optimizer.spec.key()),
            })
            stages = [Stage(s, e, r) for s, e, r in payload["stages"]]
            return stages, time.perf_counter() - begin, bool(payload["cached"])
        plan = self.optimizer.solve(num_workers)
        return list(plan.stages), time.perf_counter() - begin, False

    # -- the full cycle -------------------------------------------------
    def run_with_recovery(
        self,
        num_minibatches: int,
        faults: FaultSchedule,
        checkpoint_every: int = 1,
    ) -> RecoveryReport:
        """Simulate a crash-interrupted run, recover, and price it.

        ``checkpoint_every`` is the stage-checkpoint cadence in
        minibatches (§4 checkpoints without coordination): work since the
        last boundary is lost and re-run on the surviving cluster.
        """
        if faults.halt_time is None:
            raise ValueError("fault schedule has no crash to recover from")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        profile, topology = self.profile, self.topology
        plan = self.optimizer.solve()
        old_stages = list(plan.stages)

        # Every run goes through the plan surfaces' one rule, so a
        # data-parallel plan runs under BSP like everywhere else.
        oracle = _simulate_stages(
            profile, topology, old_stages, SimSpec(minibatches=num_minibatches))
        faulted = _simulate_stages(
            profile, topology, old_stages,
            SimSpec(minibatches=num_minibatches, faults=faults))
        crash_time = faulted.sim.halted_at
        if crash_time is None:
            raise ValueError(
                f"crash at t={faults.halt_time} lands after the "
                f"{num_minibatches}-minibatch run already finished — "
                "nothing to recover")

        detection = self.detection_time(crash_time)
        failed = set(faults.crashed_workers(crash_time))
        survivors = surviving_worker_count(topology, len(failed))

        new_stages, replan_seconds, cached = self.replan(survivors)

        # Work since the last checkpoint boundary is lost; the survivors
        # re-run it plus everything the crash preempted.  The last
        # minibatch is always re-run: its trailing update rounds can't be
        # attested complete after the crash.
        completed = min(len(faulted.sim.minibatch_done), num_minibatches - 1)
        kept = (completed // checkpoint_every) * checkpoint_every
        resumed_count = num_minibatches - kept

        sub_topology = topology.subset(survivors)
        resumed = _simulate_stages(
            profile, sub_topology, new_stages, SimSpec(minibatches=resumed_count))

        # Downtime (detection + planning) lands on the simulated critical
        # path; the resumed run then starts from zero pipeline state.
        # Completion clocks compare when the last *minibatch* finishes —
        # total_time also counts trailing weight syncs, which both runs
        # pay and which would mask the recovery gap.
        oracle_done = max(oracle.sim.minibatch_done.values())
        recovery_total = (detection + replan_seconds
                          + max(resumed.sim.minibatch_done.values()))
        oracle_seconds = oracle.sim.total_time
        oracle_rate = num_minibatches / oracle_done
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
            oracle_seconds=oracle_seconds,
            minibatches_lost=lost,
            service_cached=cached,
        )
        resumed.recovery = metrics
        return RecoveryReport(
            metrics=metrics,
            faulted=faulted,
            resumed=resumed,
            oracle=oracle,
            old_stages=old_stages,
            new_stages=new_stages,
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
