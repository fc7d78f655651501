"""Closed-form numpy evaluator: the cross-check oracle of the plan pricer.

The production evaluator (``repro.core.partition._evaluate_details``)
walks :class:`repro.sim.network.Placement` stage by stage.  This module
prices the same plan from integer arithmetic on contiguous worker ranges
— a second derivation of the placement/all_reduce model — and the tier-1
suites require the two to agree *bitwise* on every two-axis, unbucketed
plan (tensor-parallel and bucketed stages have no closed form here).

``_evaluate_details_vectorized`` was moved unchanged from
``core/partition.py``, where it used to be the ``vectorize=True`` path
(it measured 0.9-3.5x slower than the scalar loop on solved paper plans).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import PartitionEvaluation, Stage, _check_stages
from repro.core.profile import ModelProfile
from repro.core.ranges import range_table
from repro.core.topology import Topology
from repro.sim.memory import pipeline_memory_footprint


class _NumpyTables:
    """Float views of the production range table (the same sums)."""

    def __init__(self, profile: ModelProfile):
        tables = range_table(profile)
        self.np_time = np.asarray(tables.compute)
        self.np_weights = np.asarray(tables.weights, dtype=float)
        self.np_recurrent = np.asarray(tables.deferred, dtype=float)
        self.np_acts = np.asarray(tables.out_bytes, dtype=float)
        self.np_backward = np.asarray(tables.backward)


def evaluate_details_closed_form(
    profile: ModelProfile,
    stages: Sequence[Stage],
    topology: Topology,
    memory_limit_bytes: Optional[float] = None,
) -> PartitionEvaluation:
    """Oracle twin of :func:`repro.core.partition.evaluate_partition_details`
    for plans without tensor-parallel stages and without bucketing."""
    _check_stages(len(profile), stages)
    if any(s.tp_degree > 1 for s in stages):
        raise ValueError("the closed form covers tp_degree == 1 stages only")
    result = _evaluate_details_vectorized(
        _NumpyTables(profile), stages, topology
    )
    return replace(
        result,
        memory_bytes=tuple(pipeline_memory_footprint(profile, stages)),
        memory_limit_bytes=memory_limit_bytes,
    )


def _evaluate_details_vectorized(
    tables: _NumpyTables, stages: Sequence[Stage], topology: Topology
) -> PartitionEvaluation:
    """Numpy path: all stages at once from the cached prefix tables.

    Worker groups are contiguous ranges (stage-major packing), so the
    placement queries reduce to integer arithmetic: a contiguous group
    ``[first, last]`` spans ``last//W_k - first//W_k + 1`` level-k
    components (``W_k`` = workers per level-k component), and the boundary
    link between adjacent groups crosses the outermost level whose
    component ids differ between workers ``dst-1`` and ``dst``.  The float
    expressions mirror :func:`repro.sim.network.allreduce_time` and the
    scalar twin exactly, term for term, so results match bitwise.
    """
    levels = topology.levels
    scale = topology.compute_scale
    S = len(stages)
    starts = np.fromiter((s.start for s in stages), dtype=np.int64, count=S)
    stops = np.fromiter((s.stop for s in stages), dtype=np.int64, count=S)
    reps = np.fromiter((s.replicas for s in stages), dtype=np.int64, count=S)

    compute = (tables.np_time[stops] - tables.np_time[starts]) / scale
    if any(s.recompute for s in stages):
        # Same float expression as the scalar twin, selected elementwise;
        # the guard keeps recompute-free plans on the untouched arrays.
        bwd = (tables.np_backward[stops] - tables.np_backward[starts]) / scale
        rec = np.fromiter((s.recompute for s in stages), dtype=bool, count=S)
        compute = np.where(rec, compute + (compute - bwd), compute)
    cost = compute / reps
    exposed = np.zeros(S)
    hidden = np.zeros(S)
    if bool((reps > 1).any()):
        weights = tables.np_weights[stops] - tables.np_weights[starts]
        deferred = tables.np_recurrent[stops] - tables.np_recurrent[starts]
        gfirst = np.cumsum(reps) - reps
        glast = gfirst + reps - 1
        stream = np.zeros(S)
        blocked = np.zeros(S)
        per_component = 1
        for k, level in enumerate(levels):
            count_k = level.count
            u_first = gfirst // per_component
            u_last = glast // per_component
            p_first = u_first // count_k
            p_last = u_last // count_k
            # Largest per-parent sibling group of the contiguous range
            # (the closed form of Placement.ring_sizes): one parent → the
            # whole span; a parent strictly inside the range is full;
            # otherwise the larger of the two edge fragments.
            group = np.where(
                p_first == p_last,
                u_last - u_first + 1,
                np.where(
                    p_last - p_first >= 2,
                    count_k,
                    np.maximum((p_first + 1) * count_k - u_first,
                               u_last - p_last * count_k + 1),
                ),
            )
            ring = 2.0 * (group - 1) / group
            arbw = level.allreduce_bandwidth
            stream = stream + ring * (weights - deferred) / arbw
            blocked = blocked + ring * deferred / arbw
            alpha = level.allreduce_latency
            if alpha > 0.0:
                # Per-collective setup cost: paid once per level a ring
                # actually runs on, only when there is a payload (mirrors
                # allreduce_time's early return on num_bytes <= 0).
                lat = np.where(group > 1, alpha, 0.0)
                stream = stream + np.where(weights - deferred > 0, lat, 0.0)
                blocked = blocked + np.where(deferred > 0, lat, 0.0)
            per_component *= count_k
        cost = np.where(
            reps > 1, np.maximum(cost, stream / reps) + blocked / reps, cost
        )
        exposed = np.where(reps > 1, cost - compute / reps, 0.0)
        hidden = np.where(
            reps > 1, stream / reps + blocked / reps - exposed, 0.0
        )
    stage_times = tuple(cost.tolist())

    boundary_times: Tuple[float, ...] = ()
    if S > 1:
        dst = (np.cumsum(reps) - reps)[1:]  # first worker of each next group
        src = dst - 1
        crossing = np.zeros(S - 1, dtype=np.int64)
        per_component = 1
        for k, level in enumerate(levels):
            crossing = np.where(
                src // per_component != dst // per_component, k, crossing
            )
            per_component *= level.count
        bw = np.asarray([level.bandwidth for level in levels])[crossing]
        boundary = 2.0 * tables.np_acts[stops[:-1] - 1] / bw
        boundary_times = tuple(boundary.tolist())
        worst = max(max(stage_times), max(boundary_times))
    else:
        worst = max(stage_times)
    return PartitionEvaluation(
        worst, stage_times, boundary_times,
        sync_exposed=tuple(exposed.tolist()),
        sync_hidden=tuple(hidden.tolist()),
    )

