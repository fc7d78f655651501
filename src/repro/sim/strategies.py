"""High-level simulation drivers for each training strategy.

Each driver builds the appropriate schedule, runs the executor, and returns
a :class:`StrategyResult` with the metrics the paper's figures report:
steady-state throughput, communication overhead, per-sample communication
volume, and per-worker memory.  :func:`simulate_strategy` runs a scenario
— a :class:`~repro.core.spec.PlanSpec` x a :class:`~repro.core.spec.SimSpec`
— through :data:`STRATEGIES`, the one table that names a driver per
strategy.  Precision is a property of the profile
(:meth:`~repro.core.profile.ModelProfile.with_precision`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.partition import (
    PartitionResult,
    PipeDreamOptimizer,
    Stage,
    communication_bytes_per_minibatch,
    data_parallel_bytes_per_minibatch,
    plan_config,
)
from repro.core.profile import ModelProfile
from repro.core.schedule import (
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    schedule_for_family,
)
from repro.core.spec import PlanSpec, SimSpec, check_scenario
from repro.core.topology import Topology
from repro.sim.executor import SimOptions, SimResult, simulate
from repro.sim.faults import FaultSchedule
from repro.sim.memory import data_parallel_memory_footprint, pipeline_memory_footprint


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
class StrategyResult:
    """Metrics of one simulated training strategy."""

    strategy: str
    config: str
    num_workers: int
    throughput: float  # steady-state minibatches/second (per pipeline)
    epoch_time: float  # seconds to process the given minibatch count
    communication_overhead: float  # fraction of worker time stalled
    bytes_per_sample: float  # total communicated bytes / global samples
    memory_per_worker: List[int]
    sim: SimResult
    samples_per_minibatch: int = 0  # global samples each minibatch tick covers
    #: The stage list actually simulated (DP is the one-stage degenerate
    #: pipeline) — lets callers recompute per-stage breakdowns and §3.3
    #: footprints without re-deriving the plan.
    stages: List[Stage] = field(default_factory=list)
    #: Filled by the elastic control loop when this result came out of a
    #: crash/re-plan/resume cycle; None for ordinary runs.
    recovery: Optional[RecoveryMetrics] = None

    @property
    def samples_per_second(self) -> float:
        """Global training throughput in samples/second."""
        return self.throughput * self.samples_per_minibatch


def simulate_data_parallel(
    profile: ModelProfile,
    topology: Topology,
    num_minibatches: int = 16,
    faults: Optional[FaultSchedule] = None,
    bucket_bytes: Optional[float] = None,
) -> StrategyResult:
    """BSP data parallelism with wait-free backprop (§2.1).

    Weak scaling: every worker processes its own per-GPU minibatch, so the
    cluster processes ``workers x minibatch`` samples per round.  The
    workers are interchangeable when they run at one speed without faults:
    the engine then simulates one worker's stream and copies its timeline
    to the rest (see :mod:`repro.sim.executor`).
    """
    _check_run_lengths(num_minibatches=num_minibatches)
    workers = topology.total_workers
    schedule = data_parallel_schedule(workers, num_minibatches, num_layers=len(profile))
    sim = simulate(schedule, profile, topology,
                   SimOptions(sync_mode="bsp", faults=faults,
                              bucket_bytes=bucket_bytes))
    # One simulated iteration = one minibatch per worker, so the run covers
    # ``num_minibatches * workers`` actual minibatches.
    samples = num_minibatches * profile.batch_size * workers
    total_bytes = (
        data_parallel_bytes_per_minibatch(profile, workers) * num_minibatches * workers
    )
    return StrategyResult(
        strategy="dp",
        config=str(workers),
        num_workers=workers,
        throughput=sim.steady_state_throughput,
        epoch_time=sim.total_time,
        communication_overhead=sim.communication_overhead,
        bytes_per_sample=total_bytes / samples,
        memory_per_worker=[data_parallel_memory_footprint(profile)] * workers,
        sim=sim,
        samples_per_minibatch=workers * profile.batch_size,
        stages=[Stage(0, len(profile), workers)],
    )


def simulate_model_parallel(
    profile: ModelProfile,
    topology: Topology,
    stages: Optional[Sequence[Stage]] = None,
    num_minibatches: int = 16,
    faults: Optional[FaultSchedule] = None,
    bucket_bytes: Optional[float] = None,
) -> StrategyResult:
    """Vanilla model parallelism (Figure 2): no pipelining, one in flight."""
    _check_run_lengths(num_minibatches=num_minibatches)
    if stages is None:
        stages = balanced_straight_stages(profile, topology.total_workers)
    schedule = model_parallel_schedule(
        len(stages), num_minibatches, layer_bounds=[(s.start, s.stop) for s in stages]
    )
    sim = simulate(schedule, profile, topology,
                   SimOptions(sync_mode="pipedream", faults=faults,
                              bucket_bytes=bucket_bytes))
    samples = num_minibatches * profile.batch_size
    total_bytes = communication_bytes_per_minibatch(profile, list(stages)) * num_minibatches
    return StrategyResult(
        strategy="mp",
        config="straight",
        num_workers=topology.total_workers,
        throughput=sim.steady_state_throughput,
        epoch_time=sim.total_time,
        communication_overhead=sim.communication_overhead,
        bytes_per_sample=total_bytes / samples,
        memory_per_worker=pipeline_memory_footprint(profile, stages, in_flight=[1] * len(stages)),
        sim=sim,
        samples_per_minibatch=profile.batch_size,
        stages=list(stages),
    )


def simulate_gpipe(
    profile: ModelProfile,
    topology: Topology,
    stages: Optional[Sequence[Stage]] = None,
    num_batches: int = 8,
    num_microbatches: int = 4,
    faults: Optional[FaultSchedule] = None,
    bucket_bytes: Optional[float] = None,
) -> StrategyResult:
    """GPipe-style inter-batch pipelining with flushes (§2.2, Figure 3).

    The minibatch is split into microbatches whose compute/communication
    scale down proportionally; GPipe recomputes activations: every
    backward pays a forward's worth of compute, and the footprint counts
    one microbatch in flight per stage.
    """
    _check_run_lengths(num_batches=num_batches,
                       num_microbatches=num_microbatches)
    if stages is None:
        stages = balanced_straight_stages(profile, topology.total_workers)
    # A microbatch is 1/m of a minibatch: scale compute and activations.
    micro_profile = _scale_batch(profile, 1.0 / num_microbatches)
    schedule = gpipe_schedule(
        len(stages),
        num_batches,
        num_microbatches,
        layer_bounds=[(s.start, s.stop) for s in stages],
    )
    options = SimOptions(
        sync_mode="gpipe",
        recompute_activations=True,
        microbatches_per_batch=num_microbatches,
        faults=faults,
        bucket_bytes=bucket_bytes,
    )
    sim = simulate(schedule, micro_profile, topology, options)
    samples = num_batches * profile.batch_size
    total_bytes = (
        communication_bytes_per_minibatch(micro_profile, list(stages))
        * num_batches
        * num_microbatches
    )
    # Throughput in *minibatches* (not microbatches) per second.
    throughput = sim.steady_state_throughput / num_microbatches
    return StrategyResult(
        strategy="gpipe",
        config=f"straight-m{num_microbatches}",
        num_workers=topology.total_workers,
        throughput=throughput,
        epoch_time=sim.total_time,
        communication_overhead=sim.communication_overhead,
        bytes_per_sample=total_bytes / samples,
        memory_per_worker=pipeline_memory_footprint(
            micro_profile, stages, in_flight=[1] * len(stages)),
        sim=sim,
        samples_per_minibatch=profile.batch_size,
        stages=list(stages),
    )


def simulate_partition(
    profile: ModelProfile,
    topology: Topology,
    stages: Sequence[Stage],
    num_minibatches: int = 16,
    noam: Optional[int] = None,
    faults: Optional[FaultSchedule] = None,
    bucket_bytes: Optional[float] = None,
    schedule_family: str = "1f1b",
) -> StrategyResult:
    """Simulate an explicit PipeDream partition with the 1F1B-RR schedule.

    ``schedule_family="2bp"`` splits every backward into grad-input and
    grad-weight halves (:func:`schedule_for_family`); the default
    ``"1f1b"`` runs the exact historical schedule object.
    """
    _check_run_lengths(num_minibatches=num_minibatches)
    stages = list(stages)
    schedule = one_f_one_b_rr_schedule(stages, num_minibatches, noam=noam)
    schedule = schedule_for_family(schedule, schedule_family)
    sim = simulate(schedule, profile, topology,
                   SimOptions(sync_mode="pipedream", faults=faults,
                              bucket_bytes=bucket_bytes))
    samples = num_minibatches * profile.batch_size
    total_bytes = communication_bytes_per_minibatch(profile, stages) * num_minibatches
    return StrategyResult(
        strategy="pipedream",
        config=plan_config(stages),
        num_workers=sum(s.replicas * s.tp_degree for s in stages),
        throughput=sim.steady_state_throughput,
        epoch_time=sim.total_time,
        communication_overhead=sim.communication_overhead,
        bytes_per_sample=total_bytes / samples,
        memory_per_worker=pipeline_memory_footprint(profile, stages),
        sim=sim,
        samples_per_minibatch=profile.batch_size,
        stages=stages,
    )


def simulate_plan(
    profile: ModelProfile,
    topology: Topology,
    plan: PartitionResult,
    sim: SimSpec,
    bucket_bytes: Optional[float] = None,
) -> StrategyResult:
    """Simulate a solved plan for ``sim.minibatches`` minibatches.

    When the optimizer picked vanilla data parallelism (a single stage
    replicated over every worker of ``topology``, ResNet-50's case in
    Table 1) the DP simulation (BSP semantics) runs under the pipedream
    name; it has no pipeline bubbles to fill and ignores
    ``sim.schedule_family``.  Anything else is the 1F1B-RR pipeline of
    :func:`simulate_partition`.  ``bucket_bytes`` is the planned spec's:
    it also prices the simulated weight sync.
    """
    stages = plan.stages
    if len(stages) == 1 and stages[0].replicas == topology.total_workers:
        result = simulate_data_parallel(
            profile, topology, sim.minibatches, faults=sim.faults,
            bucket_bytes=bucket_bytes)
        return replace(result, strategy="pipedream")
    return simulate_partition(
        profile, topology, stages, sim.minibatches, plan.noam,
        faults=sim.faults, bucket_bytes=bucket_bytes,
        schedule_family=sim.schedule_family)


def _planned(profile, topology, sim, *, plan, optimizer=None):
    """Run the optimizer, then simulate its chosen configuration."""
    if optimizer is None:
        optimizer = PipeDreamOptimizer(profile, topology, **plan.options())
    return simulate_plan(
        profile, topology, optimizer.solve(topology.total_workers), sim,
        plan.bucket_bytes)


def _unplanned(driver: Callable, count: str) -> Callable:
    """Table entry of a strategy that does not plan: ``count`` is the
    driver's run-length keyword, ``bucket_bytes`` all it reads of a plan."""
    def run(profile, topology, sim, *, plan, optimizer=None):
        return driver(profile, topology, faults=sim.faults,
                      bucket_bytes=plan.bucket_bytes,
                      **{count: sim.minibatches})
    return run


#: strategy name -> ``run(profile, topology, sim, *, plan, optimizer)``:
#: the one place a name is matched with its driver (keys are
#: :data:`~repro.core.spec.STRATEGY_NAMES`, in the sweep's column order).
STRATEGIES: Dict[str, Callable] = {
    "dp": _unplanned(simulate_data_parallel, "num_minibatches"),
    "pipedream": _planned,
    "mp": _unplanned(simulate_model_parallel, "num_minibatches"),
    "gpipe": _unplanned(simulate_gpipe, "num_batches"),
}

#: The sweep's grid budget, ``(floor, divisor)`` per strategy — the one
#: place a run length is rescaled.  A cell's ``minibatches`` is what its
#: pipedream run simulates; the baselines reach steady state sooner.
GRID_BUDGET = {"dp": (4, 4), "pipedream": (1, 1), "mp": (4, 4),
               "gpipe": (2, 8)}


def grid_minibatches(strategy: str, minibatches: int) -> int:
    """The literal run length of a ``strategy`` cell in a sweep whose
    pipedream cells run ``minibatches``."""
    floor, divisor = GRID_BUDGET[strategy]
    return max(floor, minibatches // divisor)


def unplanned_stages(strategy: str, profile: ModelProfile,
                     workers: int) -> List[Stage]:
    """The stages a strategy that does not plan runs on ``workers``: data
    parallelism's one replicated stage, else the balanced straight pipeline
    the ``mp`` and ``gpipe`` drivers default to."""
    if strategy == "dp":
        return [Stage(0, len(profile), workers)]
    return balanced_straight_stages(profile, workers)


class RunKey(NamedTuple):
    """Canonical key of one simulation; see :func:`run_key`."""

    digest: str
    workers: int
    stages: Tuple[Stage, ...]
    bucket_bytes: Optional[float]
    noam: Optional[int]
    sim: tuple

    @property
    def priced(self) -> tuple:
        """The part the evaluator and the footprint read: (digest, workers,
        stages, bucket_bytes)."""
        return self[:4]


def run_key(
    profile: ModelProfile,
    workers: int,
    stages: Sequence[Stage],
    noam: Optional[int],
    sim: SimSpec,
    bucket_bytes: Optional[float],
) -> RunKey:
    """Canonical key of the run of ``stages`` (``noam`` for a planned
    pipeline, else ``None``) on ``workers`` workers under ``sim`` and
    ``bucket_bytes``: two runs with equal keys are bitwise equal.

    Two rules drop what a run cannot feel (proof obligations in
    ``tests/test_sweep_shared_runs.py``):

    - *bucket rule*: a run with no replicated stage syncs no weights —
      :func:`~repro.sim.network.allreduce_time` is 0.0 for a group of one
      and the evaluator walks buckets only for ``replicas > 1`` — so its
      ``bucket_bytes`` is ``None``.  A data-parallel run is exempt even on
      one worker: its BSP round walks the buckets.
    - *family rule*: :func:`simulate_plan` never reads the schedule family
      of a data-parallel plan, so it is ``"1f1b"``.
    """
    stages = tuple(stages)
    data_parallel = len(stages) == 1 and stages[0].replicas == workers
    if not data_parallel and all(s.replicas == 1 for s in stages):
        bucket_bytes = None
    if data_parallel and sim.schedule_family != "1f1b":
        sim = replace(sim, schedule_family="1f1b")
    return RunKey(profile.digest(), workers, stages, bucket_bytes, noam,
                  sim.key())


def simulate_strategy(
    profile: ModelProfile,
    topology: Topology,
    sim: SimSpec,
    plan: PlanSpec = PlanSpec(),
    *,
    optimizer: Optional[PipeDreamOptimizer] = None,
) -> StrategyResult:
    """Simulate the scenario ``plan`` x ``sim`` on ``topology``.

    Pass a shared ``optimizer`` (built on the *full* cluster with the same
    profile) to reuse its memoized DP tables across worker counts:
    ``solve`` is then called for this topology's worker count, the
    optimizer's own spec is the plan, and giving ``plan`` as well is an
    error.  :func:`~repro.core.spec.check_scenario` rejects a plan option
    the strategy would not read.
    """
    if optimizer is not None:
        if plan.key():  # any non-default field
            raise ValueError(
                "plan options configure the locally built optimizer; pass "
                "them to the shared optimizer's constructor")
        plan = optimizer.spec
    check_scenario(plan, sim)
    return STRATEGIES[sim.strategy](
        profile, topology, sim, plan=plan, optimizer=optimizer)


def simulate_pipedream(
    profile: ModelProfile,
    topology: Topology,
    num_minibatches: int = 16,
    spec: PlanSpec = PlanSpec(),
    optimizer: Optional[PipeDreamOptimizer] = None,
    faults: Optional[FaultSchedule] = None,
    schedule_family: str = "1f1b",
) -> StrategyResult:
    """:func:`simulate_strategy` for the pipedream strategy, spelled out."""
    sim = SimSpec("pipedream", num_minibatches, schedule_family, faults)
    return simulate_strategy(profile, topology, sim, spec, optimizer=optimizer)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _check_run_lengths(**lengths) -> None:
    """The drivers' one run-length rule: every count is at least 1."""
    for name, count in lengths.items():
        if not count >= 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")


def balanced_straight_stages(profile: ModelProfile, num_workers: int) -> List[Stage]:
    """Greedy compute-balanced straight partition (the baseline partitioner
    used for model parallelism and GPipe, which does not ship one)."""
    num_stages = min(num_workers, len(profile))
    target = profile.total_compute_time / num_stages
    stages: List[Stage] = []
    start = 0
    acc = 0.0
    for i, layer in enumerate(profile.layers):
        acc += layer.compute_time
        remaining_layers = len(profile) - i - 1
        remaining_stages = num_stages - len(stages) - 1
        must_cut = remaining_layers == remaining_stages  # one layer per stage left
        if (acc >= target or must_cut) and remaining_layers >= remaining_stages and remaining_stages > 0:
            stages.append(Stage(start, i + 1, 1))
            start = i + 1
            acc = 0.0
    stages.append(Stage(start, len(profile), 1))
    return stages


def _scale_batch(profile: ModelProfile, factor: float) -> ModelProfile:
    """A profile for a fractional minibatch (microbatching)."""
    from repro.core.profile import LayerProfile

    layers = [
        LayerProfile(
            name=l.name,
            compute_time=l.compute_time * factor,
            activation_bytes=max(1, int(l.activation_bytes * factor)),
            weight_bytes=l.weight_bytes,
            forward_time=None if l.forward_time is None else l.forward_time * factor,
            kind=l.kind,
        )
        for l in profile.layers
    ]
    batch = max(1, int(round(profile.batch_size * factor)))
    return ModelProfile(profile.model_name, layers, batch, profile.bytes_per_element)
