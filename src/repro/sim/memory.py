"""Per-worker memory accounting (§3.3 "Memory Overhead", Figures 16/18).

This module is the *single source of truth* for per-stage memory: the
partitioner's phase-1 bound, the refined suffix DP's feasibility masks
(and its scalar oracle under ``tests/oracles/``), and the
simulator/strategy footprint all price stashed state through :func:`stage_memory_cost` /
:func:`stage_memory_bytes`.  There are deliberately no other payload
formulas in the codebase — keeping one formula is what guarantees the
planner's bound-admitted ⊇ refined-admitted ⊇ footprint-feasible
invariant (see ``docs/INTERNALS.md`` §7).  The aggregate helpers below
(:func:`stage_weight_bytes` / :func:`stage_activation_bytes`) read the
profile's one range table (:func:`repro.core.ranges.range_table`, the only
place its layer lists are summed); :func:`stage_memory_bytes` reads the
same columns, including ``deferred`` and ``in_bytes``.

PipeDream's per-stage footprint is governed by the number of in-flight
minibatches a stage holds.  The in-flight count at stage ``s`` is the
stage's warmup depth — ``ceil(sum_{t>=s} r_t / r_s)`` — which equals NOAM
at the input stage and 1 at the output stage.  Per in-flight minibatch a
replica stashes one activation set and (for weight stashing) one weight
version, with one §3.3 refinement: weights whose gradients accumulate
across BPTT timesteps (the evaluator's *non-overlappable* / deferred
share, :data:`repro.core.profile.RECURRENT_KINDS`) only apply their
update at round boundaries — once per ``replicas`` minibatches of the
stage's round-robin stream — so a replica's in-flight window spans only
``ceil(depth / replicas)`` distinct versions of them.  Data parallelism
holds exactly one weight version and one activation set for the whole
model on every worker.

Activation recomputation (checkpointing) changes only the activation
term: a recompute-on stage stashes just its *input boundary* activations
per in-flight minibatch and rebuilds the interior during its backward
pass, holding at most one full activation set (the live recompute
buffer) at a time.  The kernel never prices recompute above
stash-everything — the two modes share every other term, so
recompute-on footprint ≤ recompute-off holds by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.partition import Stage
from repro.core.profile import ModelProfile
from repro.core.ranges import range_table
from repro.core.schedule import warmup_count


def stage_weight_bytes(profile: ModelProfile, start: int, stop: int) -> int:
    """Weight bytes of stage ``[start, stop)``."""
    weights = range_table(profile).weights
    return weights[stop] - weights[start]


def stage_activation_bytes(profile: ModelProfile, start: int, stop: int) -> int:
    """Activation bytes a stage must stash per in-flight minibatch.

    Every layer's output is live between forward and backward, so the stash
    is the sum of the stage's layer outputs for one minibatch.
    """
    acts = range_table(profile).acts
    return acts[stop] - acts[start]


def stage_memory_cost(weight_bytes, deferred_weight_bytes, activation_bytes,
                      depth, replicas=1, recompute=False,
                      boundary_activation_bytes=0, tp_degree=1,
                      shardable_weight_bytes=0, shardable_activation_bytes=0):
    """The shared §3.3 payload kernel: bytes one replica holds at ``depth``
    — per entry, when ``depth`` / ``replicas`` are integer arrays.

    ``weight_bytes`` / ``deferred_weight_bytes`` / ``activation_bytes`` /
    ``boundary_activation_bytes`` may be scalars or numpy arrays (the
    refined DP passes range-table arrays); ``depth`` and ``replicas`` are
    integers or integer arrays that broadcast against them — the refined
    DP passes ``(K, 1)`` arrays with packed span planes and gets
    ``K`` stacked planes, each bitwise the plane the scalar pair of that
    entry gives.  ``tp_degree`` and ``recompute`` stay scalars.  All
    consumers — the bound, the refined DP and its oracle, and the
    footprint — evaluate exactly this expression, so their admit/reject
    decisions can only differ through the
    ``depth``/``replicas``/``recompute``/``tp_degree`` they plug in, never
    through the formula:

    - eagerly-updated weights stash one version per in-flight minibatch
      (``depth`` versions, the newest being the live copy);
    - deferred (BPTT-accumulated) weights update once per round of
      ``replicas`` minibatches, so the in-flight window spans only
      ``ceil(depth / replicas)`` distinct versions of them;
    - activations stash one set per in-flight minibatch (``depth`` sets) —
      unless ``recompute`` is on, in which case the stage keeps ``depth``
      *boundary* sets plus at most one full set (the live recompute
      buffer), clamped so recompute never prices above stash-everything;
    - tensor parallelism divides only the *shardable* share
      (``shardable_weight_bytes`` / ``shardable_activation_bytes``, per
      the :mod:`repro.core.sharding` registry) by ``tp_degree``; the
      non-shardable remainder stays replicated across the tp group, the
      deferred share is unshardable by construction (RECURRENT_KINDS are
      not in the registry), and the recompute *boundary* stash stays full
      because each shard rebuilds from the gathered stage input.  The
      ``tp_degree == 1`` branch leaves every expression untouched so the
      default path stays bitwise-identical.
    """
    stash_versions = -(-depth // replicas)  # ceil(depth / replicas)
    eager = weight_bytes - deferred_weight_bytes
    if tp_degree > 1:
        eager = (eager - shardable_weight_bytes
                 + shardable_weight_bytes / tp_degree)
        activation_bytes = (activation_bytes - shardable_activation_bytes
                            + shardable_activation_bytes / tp_degree)
    acts_term = activation_bytes * depth
    if recompute:
        acts_on = boundary_activation_bytes * depth + activation_bytes
        smaller = acts_on < acts_term
        if smaller is True or smaller is False:
            acts_term = acts_on if smaller else acts_term
        else:  # numpy arrays: elementwise clamp
            import numpy as np

            acts_term = np.where(smaller, acts_on, acts_term)
    return (eager * depth
            + deferred_weight_bytes * stash_versions
            + acts_term)


def memory_ceiling(profile: ModelProfile, num_workers: int) -> int:
    """A closed-form bound on every :func:`stage_memory_cost` value a
    solve over ``num_workers`` workers compares with its memory cap:
    ``(Σ weight_bytes + Σ activation_bytes) · max(num_workers, 2)``.

    The kernel is ``eager·d + deferred·⌈d/r⌉ + acts_term`` with
    ``eager + deferred`` at most the span's weights (tp only divides a
    share of them), ``⌈d/r⌉ <= d`` and ``acts_term <= acts·d`` (recompute is
    clamped at stash-everything), so it is at most ``(W + A)·d`` for the
    whole model's weights ``W`` and activations ``A``.  The depth ``d`` is
    a 1F1B warmup count, at most ``num_workers`` — in the refined DP's
    masks, the bound-only matrix and :func:`pipeline_memory_footprint`
    alike — except that the phase-1 floor prices a non-final span at depth
    2 whatever the worker count, hence the ``max``.  A cap at or above the
    ceiling therefore cannot flip one ``cost <= cap`` comparison: the
    solver's tables under it do not depend on its value.
    """
    return data_parallel_memory_footprint(profile) * max(num_workers, 2)


def stage_memory_bytes(
    profile: ModelProfile,
    start: int,
    stop: int,
    depth: int,
    replicas: int = 1,
    recompute: bool = False,
    tp_degree: int = 1,
) -> int:
    """Peak bytes one replica of stage ``[start, stop)`` holds at ``depth``
    in-flight minibatches — the single source of truth for per-stage memory
    (see module docstring), priced from the profile's range table.  With
    ``tp_degree > 1`` this is the footprint of *one physical shard* of a
    replica; the shardable share comes from the table's ``shard_*``
    columns (the kernel reads it only when ``tp_degree > 1``)."""
    tb = range_table(profile)
    return int(stage_memory_cost(
        tb.weights[stop] - tb.weights[start],
        tb.deferred[stop] - tb.deferred[start],
        tb.acts[stop] - tb.acts[start], depth, replicas,
        recompute=recompute, boundary_activation_bytes=tb.in_bytes[start],
        tp_degree=tp_degree,
        shardable_weight_bytes=tb.shard_weights[stop] - tb.shard_weights[start],
        shardable_activation_bytes=tb.shard_acts[stop] - tb.shard_acts[start],
    ))


def pipeline_memory_footprint(
    profile: ModelProfile,
    stages: Sequence[Stage],
    in_flight: Optional[Sequence[int]] = None,
) -> List[int]:
    """Peak bytes per worker for each pipeline stage.

    ``in_flight`` overrides the per-stage in-flight minibatch count (used by
    the Figure 18 pipeline-depth sweep); by default it is the stage's 1F1B
    warmup depth.  Each stage is priced by :func:`stage_memory_bytes` at
    that depth, its own replica count, and its own recompute flag.
    """
    if in_flight is not None and len(in_flight) != len(stages):
        raise ValueError(
            f"in_flight must have one entry per stage: expected "
            f"{len(stages)}, got {len(in_flight)}")
    footprints = []
    for s, stage in enumerate(stages):
        depth = in_flight[s] if in_flight is not None else warmup_count(stages, s)
        footprints.append(
            stage_memory_bytes(profile, stage.start, stage.stop, depth,
                               stage.replicas, recompute=stage.recompute,
                               tp_degree=stage.tp_degree)
        )
    return footprints


def data_parallel_memory_footprint(profile: ModelProfile) -> int:
    """Per-worker bytes under DP: full weights + one activation set."""
    num_layers = len(profile.layers)
    weights = stage_weight_bytes(profile, 0, num_layers)
    activations = stage_activation_bytes(profile, 0, num_layers)
    return weights + activations
