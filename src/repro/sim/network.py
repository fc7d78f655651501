"""Network cost models: placement, point-to-point transfers, all_reduce.

Workers are packed innermost-first onto the topology (fill a server before
spilling to the next), mirroring how multi-GPU jobs are placed in the
paper's clusters.  A transfer between two workers runs at the bandwidth of
the outermost level at which their coordinates diverge; a ring all_reduce
over a worker group pays ``2 (g_k - 1)/g_k * bytes / B_k`` at every level
the group spans.  :func:`stage_terms` is the one place a stage is priced:
its compute, checkpoint replay, tp boundary and sync terms, all from the
profile's range table.  The event engine and the analytic evaluator read
the same terms and compose them each their own way (a dependency-driven
timeline against a max over stages); the sweep's sync column reads
:func:`stage_sync_seconds`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.comm.bucketing import gradient_buckets
from repro.core.profile import ModelProfile
from repro.core.ranges import RangeTable, range_table
from repro.core.spec import reject_tp_bucketing
from repro.core.topology import Topology

if TYPE_CHECKING:  # repro.core.partition imports this module lazily
    from repro.core.partition import Stage


class Placement:
    """Maps global worker ids to per-level component coordinates."""

    def __init__(self, topology: Topology):
        self.topology = topology

    def coordinates(self, worker: int) -> Tuple[int, ...]:
        """Coordinate of ``worker`` at each level, innermost first."""
        coords = []
        remainder = worker
        for level in self.topology.levels:
            coords.append(remainder % level.count)
            remainder //= level.count
        return tuple(coords)

    def link_level(self, src: int, dst: int) -> int:
        """Index of the topology level a (src, dst) transfer crosses.

        The outermost level at which the *containing component* differs
        determines the link; component identity at level k is the
        coordinate tuple above level k.  Returns -1 when src == dst (no
        link is crossed).
        """
        if src == dst:
            return -1
        src_coords = self.coordinates(src)
        dst_coords = self.coordinates(dst)
        crossing = 0
        for k in reversed(range(self.topology.num_levels)):
            if src_coords[k:] != dst_coords[k:]:
                crossing = k
                break
        return crossing

    def link_bandwidth(self, src: int, dst: int) -> float:
        """Bandwidth between two workers: the slowest level they cross."""
        if src == dst:
            return float("inf")
        return self.topology.levels[self.link_level(src, dst)].bandwidth

    def ring_sizes(self, workers: Sequence[int]) -> List[int]:
        """Per-level ring size: the *largest* per-parent sibling group.

        At level k the group runs one ring per level-(k+1) parent, over the
        distinct level-k components that parent contains.  The rings run
        concurrently, so the level's cost is governed by the largest one —
        not the mean.  (``round(span_k / span_{k+1})`` mis-priced uneven
        packings: 3 workers under 2 hosts is a 2-ring plus a singleton,
        which the rounded mean 1.5 → 2 happened to get right, but e.g. 5
        workers under 4-per-host is a 4-ring plus a singleton and the mean
        round(5/2) = 2 under-priced it.)
        """
        coords = [self.coordinates(w) for w in workers]
        sizes = []
        for k in range(self.topology.num_levels):
            children: dict = {}
            for c in coords:
                children.setdefault(c[k + 1:], set()).add(c[k:])
            sizes.append(max(len(members) for members in children.values()))
        return sizes


def ring_cost_factors(topology: Topology, sizes: Sequence[int]) -> Tuple[float, float]:
    """``(coeff, lat)`` of a ring all_reduce with per-level ring ``sizes``
    (:meth:`Placement.ring_sizes`) — :func:`allreduce_time` decomposed as
    ``coeff * bytes + lat``, the one spelling of the per-level sum the
    planner's ring tables read.

    The planner's tensor-parallel cells price a stage's dp replica group
    and tp shard groups as *separate* collectives over the worker ids each
    group actually contains.  Charging α (``allreduce_latency``) and the
    per-level ring term once per *active level per group* — instead of
    once per fused ``replicas x tp_degree`` span — is what keeps the
    planner's pricing identical to the simulator's, which also runs the
    groups separately.  A level a group does not span (ring size 1)
    contributes neither bandwidth nor α, exactly as in
    :func:`allreduce_time`."""
    coeff = 0.0
    lat = 0.0
    for k, level in enumerate(topology.levels):
        group = sizes[k]
        if group > 1:
            coeff += 2.0 * (group - 1) / group / level.allreduce_bandwidth
            if level.allreduce_latency > 0.0:
                lat += level.allreduce_latency
    return coeff, lat


def allreduce_time(placement: Placement, workers: Sequence[int], num_bytes: float) -> float:
    """Hierarchical ring all_reduce of ``num_bytes`` across ``workers``.

    At each level the group spans, every participant moves
    ``2 (g - 1)/g * num_bytes`` over that level's links, where ``g`` is the
    *largest* per-parent sibling group at that level (see
    :meth:`Placement.ring_sizes` — the concurrent per-parent rings finish
    with the biggest one); levels proceed sequentially (reduce-scatter
    inward, all-gather outward), so the times add.  Each level runs at its
    *all_reduce* bandwidth — the calibrated fraction of line rate
    collectives actually achieve (see
    :class:`~repro.core.topology.TopologyLevel`) — and each level a ring
    actually runs on adds its fixed ``allreduce_latency`` α, so splitting a
    payload into many buckets pays α per bucket.
    """
    if len(workers) <= 1 or num_bytes <= 0:
        return 0.0
    total = 0.0
    sizes = placement.ring_sizes(workers)
    for k, level in enumerate(placement.topology.levels):
        group = sizes[k]
        if group > 1:
            total += 2.0 * (group - 1) / group * num_bytes / level.allreduce_bandwidth
            if level.allreduce_latency > 0.0:
                total += level.allreduce_latency
    return total


class StageTerms(NamedTuple):
    """Seconds (and boundary bytes) one stage's price is composed from
    (see :func:`stage_terms`), per minibatch unless noted."""

    #: Forward + backward compute on one replica, the shardable share
    #: divided by ``tp_degree``; ``forward`` is ``compute - backward``.
    compute: float
    forward: float
    backward: float
    #: The forward a checkpointed stage (``stage.recompute``) replays
    #: inside its backward; 0.0 otherwise.
    replay: float
    #: tp boundary all_reduces, each the slowest of the stage's
    #: concurrent replica groups: the output activation after every
    #: forward, the input activation in every backward (0.0 at
    #: ``tp_degree == 1``).
    tp_out: float
    tp_in: float
    #: Per-round dp sync over the leader ring: the streamable payload
    #: (the sum of its bucket collectives when bucketed) and the
    #: BPTT-deferred payload, which only exists once backward ends.
    stream: float
    deferred: float
    #: ``(seconds, ready_fraction)`` per stream bucket in firing order;
    #: ``()`` unbucketed.
    buckets: Tuple[Tuple[float, float], ...]
    #: Bytes of the stage's output activation (its boundary payload).
    out_bytes: int


def stage_terms(
    placement: Placement,
    profile: ModelProfile,
    stages: Sequence[Stage],
    stage_workers: Mapping[int, Sequence[int]],
    bucket_bytes: Optional[float] = None,
) -> List[StageTerms]:
    """Price every compute and collective term of each stage on
    ``placement``, all from the profile's one range table.

    Compute is the span's prefix difference over the topology's
    ``compute_scale``; at ``tp_degree == t > 1`` its shardable share (and
    that of the backward) divides by ``t`` while the rest is replicated
    work every shard repeats.  ``stage_workers[s]`` (a list or a dict keyed
    by stage index, like :attr:`Schedule.stage_workers`) holds one worker id
    per replica of stage ``s`` — the first of its ``t`` consecutive ids
    (the stage-major, tp-strided rule of
    :func:`repro.core.schedule._assign_workers`).  Replica ``q``'s tp
    group is ``[leaders[q], leaders[q] + t)``; the dp sync runs one ring
    over the leaders (each of the ``t`` concurrent shard rings crosses
    the same levels), charged only at the levels that strided ring spans
    — never the fused ``replicas x t`` span.  Each shard ring syncs the
    unshardable weights plus a ``1/t`` slice of the shardable share
    (:func:`_shard_share`); deferred (BPTT) weights are unshardable and
    stay whole.

    ``bucket_bytes`` splits the stream payload into the
    :func:`~repro.comm.bucketing.gradient_buckets` collectives, each
    paying the per-collective latency again.  Tensor parallelism x
    bucketing is not modeled and is rejected here.
    """
    tables = range_table(profile)
    scale = placement.topology.compute_scale
    terms = []
    for s, stage in enumerate(stages):
        start, stop, t = stage.start, stage.stop, stage.tp_degree
        leaders = stage_workers[s]
        reject_tp_bucketing(t > 1, bucket_bytes)
        compute = (tables.compute[stop] - tables.compute[start]) / scale
        backward = (tables.backward[stop] - tables.backward[start]) / scale
        tp_out = tp_in = 0.0
        if t > 1:
            sc = (tables.shard_compute[stop]
                  - tables.shard_compute[start]) / scale
            compute = compute - sc + sc / t
            sb = (tables.shard_backward[stop]
                  - tables.shard_backward[start]) / scale
            backward = backward - sb + sb / t
            out_act = tables.out_bytes[stop - 1]
            in_act = tables.in_bytes[start]
            for leader in leaders:
                group = range(leader, leader + t)
                tp_out = max(tp_out, allreduce_time(placement, group, out_act))
                tp_in = max(tp_in, allreduce_time(placement, group, in_act))
        forward = compute - backward
        deferred_bytes = tables.deferred[stop] - tables.deferred[start]
        deferred = allreduce_time(placement, leaders, deferred_bytes)
        if bucket_bytes is None:
            buckets = ()
            stream = allreduce_time(placement, leaders, _shard_share(
                tables, stage,
                (tables.weights[stop] - tables.weights[start]) - deferred_bytes))
        else:
            buckets = tuple(
                (allreduce_time(placement, leaders, bucket.payload_bytes),
                 bucket.ready_fraction)
                for bucket in gradient_buckets(profile, start, stop, bucket_bytes))
            stream = sum(seconds for seconds, _ in buckets)
        terms.append(StageTerms(
            compute, forward, backward, forward if stage.recompute else 0.0,
            tp_out, tp_in, stream, deferred, buckets,
            tables.out_bytes[stop - 1]))
    return terms


def _shard_share(tables: RangeTable, stage: Stage, payload: float) -> float:
    """One tp shard ring's share of ``payload`` weight bytes of ``stage``:
    the payload less the shardable weights plus a ``1/tp_degree`` slice of
    them (``payload`` itself at ``tp_degree == 1``)."""
    t = stage.tp_degree
    if t == 1:
        return payload
    shard_w = tables.shard_weights[stage.stop] - tables.shard_weights[stage.start]
    return payload - shard_w + shard_w / t


def stage_sync_seconds(
    placement: Placement,
    profile: ModelProfile,
    stage: Stage,
    leaders: Sequence[int],
) -> float:
    """One ring all_reduce of the stage's whole weight payload, deferred
    weights included, over its leader ring (each shard ring carrying its
    :func:`_shard_share`): the sweep's ``allreduce_seconds`` column, which
    does not split the stream from the deferred payload."""
    tables = range_table(profile)
    weights = tables.weights[stage.stop] - tables.weights[stage.start]
    return allreduce_time(placement, leaders, _shard_share(tables, stage, weights))
