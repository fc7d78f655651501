"""High-level simulation drivers for each training strategy.

Each driver builds the appropriate schedule, runs the executor, and returns
a :class:`StrategyResult` with the metrics the paper's figures report:
steady-state throughput, communication overhead, per-sample communication
volume, and per-worker memory.  :func:`simulate_stages` is the one place a
strategy name meets its driver: :func:`simulate_strategy` runs a scenario
— a :class:`~repro.core.spec.PlanSpec` x a :class:`~repro.core.spec.SimSpec`
— by getting its stages (the optimizer's plan, or the stages a strategy
that does not plan runs) and handing them to it, and the sweep and the
elastic loop call it with stages they already hold.  Precision is a
property of the profile
(:meth:`~repro.core.profile.ModelProfile.with_precision`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.partition import (
    PipeDreamOptimizer,
    Stage,
    communication_bytes_per_minibatch,
    data_parallel_bytes_per_minibatch,
    is_data_parallel,
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
    total_bytes = (
        data_parallel_bytes_per_minibatch(profile, workers) * num_minibatches * workers
    )
    return _result(
        "dp", str(workers), workers, sim, [Stage(0, len(profile), workers)],
        [data_parallel_memory_footprint(profile)] * workers, total_bytes,
        ticks=num_minibatches, samples_per_minibatch=workers * profile.batch_size)


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
    total_bytes = communication_bytes_per_minibatch(profile, list(stages)) * num_minibatches
    return _result(
        "mp", "straight", topology.total_workers, sim, stages,
        pipeline_memory_footprint(profile, stages, in_flight=[1] * len(stages)),
        total_bytes, ticks=num_minibatches, samples_per_minibatch=profile.batch_size)


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
    total_bytes = (communication_bytes_per_minibatch(micro_profile, list(stages))
                   * num_batches * num_microbatches)
    return _result(
        "gpipe", f"straight-m{num_microbatches}", topology.total_workers, sim,
        stages, pipeline_memory_footprint(
            micro_profile, stages, in_flight=[1] * len(stages)),
        total_bytes, ticks=num_batches, samples_per_minibatch=profile.batch_size,
        microbatches=num_microbatches)


def simulate_partition(
    profile: ModelProfile,
    topology: Topology,
    stages: Sequence[Stage],
    num_minibatches: int = 16,
    faults: Optional[FaultSchedule] = None,
    bucket_bytes: Optional[float] = None,
    schedule_family: str = "1f1b",
) -> StrategyResult:
    """Simulate an explicit PipeDream partition with the 1F1B-RR schedule.

    The schedule admits the NOAM its stages imply,
    ``warmup_count(stages, 0)``, which is the NOAM a plan reports.
    ``schedule_family="2bp"`` splits every backward into grad-input and
    grad-weight halves (:func:`schedule_for_family`); the default
    ``"1f1b"`` runs the exact historical schedule object.
    """
    _check_run_lengths(num_minibatches=num_minibatches)
    stages = list(stages)
    schedule = one_f_one_b_rr_schedule(stages, num_minibatches)
    schedule = schedule_for_family(schedule, schedule_family)
    sim = simulate(schedule, profile, topology,
                   SimOptions(sync_mode="pipedream", faults=faults,
                              bucket_bytes=bucket_bytes))
    total_bytes = communication_bytes_per_minibatch(profile, stages) * num_minibatches
    return _result(
        "pipedream", plan_config(stages), sum(s.workers for s in stages), sim,
        stages, pipeline_memory_footprint(profile, stages), total_bytes,
        ticks=num_minibatches, samples_per_minibatch=profile.batch_size)


def _result(strategy: str, config: str, num_workers: int, sim: SimResult,
            stages: Sequence[Stage], memory: List[int], total_bytes: float,
            *, ticks: int, samples_per_minibatch: int,
            microbatches: int = 1) -> StrategyResult:
    """The drivers' one :class:`StrategyResult` builder: ``ticks``
    schedule iterations of ``samples_per_minibatch`` samples each moved
    ``total_bytes``; a minibatch is ``microbatches`` of the simulated
    pipeline's ticks, so throughput is counted in minibatches."""
    return StrategyResult(
        strategy=strategy, config=config, num_workers=num_workers,
        throughput=sim.steady_state_throughput / microbatches,
        epoch_time=sim.total_time,
        communication_overhead=sim.communication_overhead,
        bytes_per_sample=total_bytes / (ticks * samples_per_minibatch),
        memory_per_worker=memory, sim=sim,
        samples_per_minibatch=samples_per_minibatch, stages=list(stages))


def simulate_stages(
    profile: ModelProfile,
    topology: Topology,
    stages: Sequence[Stage],
    sim: SimSpec,
    bucket_bytes: Optional[float] = None,
) -> StrategyResult:
    """Simulate ``stages`` on ``topology`` under ``sim``: the one place a
    strategy name meets its driver.

    ``mp`` and ``gpipe`` run their schedules over ``stages``.  A
    data-parallel stage list (:func:`~repro.core.partition.is_data_parallel`:
    always ``dp``'s, and a pipedream plan's when the optimizer picked
    vanilla DP, ResNet-50's case in Table 1) runs the BSP driver under
    ``sim.strategy``'s name; it has no pipeline bubbles to fill and
    ignores ``sim.schedule_family``.  Any other pipedream stage list is
    the 1F1B-RR pipeline of :func:`simulate_partition`.  ``bucket_bytes``
    prices the simulated weight sync.
    """
    strategy, count, faults = sim.strategy, sim.minibatches, sim.faults
    if strategy == "mp":
        return simulate_model_parallel(
            profile, topology, stages, count, faults, bucket_bytes)
    if strategy == "gpipe":
        return simulate_gpipe(profile, topology, stages, count,
                              faults=faults, bucket_bytes=bucket_bytes)
    if is_data_parallel(stages, topology.total_workers):
        result = simulate_data_parallel(
            profile, topology, count, faults, bucket_bytes)
        return replace(result, strategy=strategy)
    if strategy == "dp":
        raise ValueError(
            f"dp runs one stage over all {topology.total_workers} workers, "
            f"not {plan_config(stages)!r}")
    return simulate_partition(profile, topology, stages, count, faults,
                              bucket_bytes, sim.schedule_family)


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
    sim: SimSpec,
    bucket_bytes: Optional[float],
) -> RunKey:
    """Canonical key of the run of ``stages`` on ``workers`` workers under
    ``sim`` and ``bucket_bytes``: two runs with equal keys are bitwise
    equal.  ``sim.key()`` leads with the strategy, which tells a planned
    run from an unplanned one on the same stages.

    Two rules drop what a run cannot feel (proof obligations in
    ``tests/test_sweep_shared_runs.py``):

    - *bucket rule*: a run with no replicated stage syncs no weights —
      :func:`~repro.sim.network.allreduce_time` is 0.0 for a group of one
      and the evaluator walks buckets only for ``replicas > 1`` — so its
      ``bucket_bytes`` is ``None``.  A data-parallel run is exempt even on
      one worker: its BSP round walks the buckets.
    - *family rule*: :func:`simulate_stages` never reads the schedule
      family of a data-parallel stage list, so it is ``"1f1b"``.
    """
    stages = tuple(stages)
    data_parallel = is_data_parallel(stages, workers)
    if not data_parallel and all(s.replicas == 1 for s in stages):
        bucket_bytes = None
    if data_parallel and sim.schedule_family != "1f1b":
        sim = replace(sim, schedule_family="1f1b")
    return RunKey(profile.digest(), workers, stages, bucket_bytes, sim.key())


def simulate_strategy(
    profile: ModelProfile,
    topology: Topology,
    sim: SimSpec,
    plan: PlanSpec = PlanSpec(),
    *,
    optimizer: Optional[PipeDreamOptimizer] = None,
) -> StrategyResult:
    """Simulate the scenario ``plan`` x ``sim`` on ``topology``.

    The pipedream strategy runs the optimizer's plan for this topology's
    worker count; the others run :func:`unplanned_stages`.  Pass a shared
    ``optimizer`` (built on the *full* cluster with the same profile) to
    reuse its memoized DP tables across worker counts: the optimizer's own
    spec is then the plan, and giving ``plan`` as well is an error.
    :func:`~repro.core.spec.check_scenario` rejects a plan option the
    strategy would not read.
    """
    if optimizer is not None:
        if plan.key():  # any non-default field
            raise ValueError(
                "plan options configure the locally built optimizer; pass "
                "them to the shared optimizer's constructor")
        plan = optimizer.spec
    check_scenario(plan, sim)
    if sim.strategy != "pipedream":
        stages = unplanned_stages(sim.strategy, profile, topology.total_workers)
    elif optimizer is None:
        stages = PipeDreamOptimizer(profile, topology, **plan.options()).solve().stages
    else:
        stages = optimizer.solve(topology.total_workers).stages
    return simulate_stages(profile, topology, stages, sim, plan.bucket_bytes)


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
