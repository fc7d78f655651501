"""Work scheduling (§3.2): 1F1B, 1F1B-RR, and baseline schedules.

A :class:`Schedule` is a *static* per-worker sequence of operations — exactly
the artifact PipeDream computes offline and each worker then runs repeatedly
without distributed coordination.  Ops reference (stage, minibatch) pairs;
weight updates appear as explicit ops so both the real runtime and the
performance simulator can interpret the same schedule.

A schedule is one :class:`ScheduleTable` — three parallel int columns
(kind code, stage, minibatch) per worker, produced by slice arithmetic —
which the simulator and the trainers read directly (:func:`lockstep_walk`
drives a table in dependency order).  :attr:`Schedule.worker_ops`, the
read-only per-worker :class:`Op` tuples :func:`validate_schedule` reads, is
built from the table on each read.

1F1B generation: the startup phase admits NOAM minibatches per input-stage
replica, after which every worker strictly alternates between forward and
backward passes.  For straight pipelines the schedule is produced in closed
form (warmup of ``num_stages - s`` forwards at stage ``s``, Figure 4).  For
replicated stages, 1F1B-RR routes minibatch ``b`` to replica ``b mod r``
and each replica runs the same warm-up / steady / drain pattern over its
own minibatches, which reduces to the closed form in the straight case
(asserted by the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from types import MappingProxyType
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.core.partition import Stage


class OpKind(Enum):
    FORWARD = "F"
    BACKWARD = "B"
    #: 2BP grad-weight op: the weight-gradient half of a split backward
    #: pass.  Purely local to its worker (no sends) and always ready once
    #: reached in worker order — it must follow its minibatch's BACKWARD
    #: (the grad-input half) on the same worker.
    BACKWARD_W = "W"
    UPDATE = "U"


#: Schedule families a 1F1B-style schedule can be transformed into.
#: ``"1f1b"`` is the identity; ``"2bp"`` applies
#: :func:`split_backward_schedule` (2-Stage Backpropagation).
SCHEDULE_FAMILIES = ("1f1b", "2bp")


@dataclass(frozen=True, slots=True)
class Op:
    """One scheduled operation on a worker."""

    kind: OpKind
    stage: int
    minibatch: int

    def __repr__(self) -> str:
        return f"{self.kind.value}{self.minibatch}@s{self.stage}"


#: The op kind of each integer code in a :class:`ScheduleTable` kind column.
OP_KINDS = (OpKind.FORWARD, OpKind.BACKWARD, OpKind.BACKWARD_W, OpKind.UPDATE)
FWD, BWD, BWD_W, UPD = range(4)


class ScheduleTable(NamedTuple):
    """A schedule as data: per worker, three parallel int columns.

    Row ``rank`` holds worker ``workers[rank]``'s ops in execution order:
    ``kinds[rank][i]`` (a code into :data:`OP_KINDS`), ``stages[rank][i]``
    and ``minibatches[rank][i]``.  Rank order is the simulator's commit
    tie-break.  Columns are read-only and may be shared between rows.
    """

    workers: List[int]
    kinds: List[List[int]]
    stages: List[List[int]]
    minibatches: List[List[int]]

    def ops(self, rank: int) -> Tuple[Op, ...]:
        """Row ``rank`` as fresh :class:`Op` objects."""
        return tuple(map(Op, map(OP_KINDS.__getitem__, self.kinds[rank]),
                         self.stages[rank], self.minibatches[rank]))


class Schedule:
    """A static pipeline schedule.

    Attributes:
        stages: the stage list (layer ranges + replica counts).
        num_minibatches: how many minibatches the schedule covers.
        table: the ops, one :class:`ScheduleTable` row per worker.
        stage_workers: worker ids serving each stage, replica-indexed
            (default: the stage-major, tp-strided assignment every builder
            uses).
        backward_split: True for 2BP schedules — every BACKWARD op is the
            grad-input half of a split backward pass, with a matching
            BACKWARD_W (grad-weight) op later on the same worker.
    """

    def __init__(
        self,
        stages: List[Stage],
        num_minibatches: int,
        table: ScheduleTable,
        stage_workers: Optional[Dict[int, List[int]]] = None,
        backward_split: bool = False,
    ):
        self.stages = stages
        self.num_minibatches = num_minibatches
        self.table = table
        self.stage_workers = (_assign_workers(stages) if stage_workers is None
                              else stage_workers)
        self.backward_split = backward_split

    @property
    def worker_ops(self) -> Mapping[int, Tuple[Op, ...]]:
        """Read-only view of the table, built afresh on each read: worker
        id -> its ops, in execution order."""
        table = self.table
        return MappingProxyType({w: table.ops(rank)
                                 for rank, w in enumerate(table.workers)})

    @property
    def num_workers(self) -> int:
        """Physical worker count: replicas x tp shards summed over stages.

        ``stage_workers`` holds one *representative* id per replica (the
        tp-group leader); the other ``tp_degree - 1`` shards of each
        replica occupy the ids between representatives and run in
        lockstep with their leader, so they appear in the count but not
        in the op lists.
        """
        return sum(s.replicas * s.tp_degree for s in self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def replica_for(self, stage: int, minibatch: int) -> int:
        """Worker id serving ``minibatch`` at ``stage`` (round-robin rule)."""
        workers = self.stage_workers[stage]
        return workers[minibatch % len(workers)]


def _assign_workers(stages: Sequence[Stage]) -> Dict[int, List[int]]:
    """Give each stage replica a global worker id, stage-major.

    With tensor parallelism, replica ``q`` of a stage is a *group* of
    ``tp_degree`` consecutive physical workers; the group's first id is
    the representative that carries the schedule's ops (the shards run in
    lockstep), so representatives within a stage are ``tp_degree`` apart.
    At ``tp_degree == 1`` this is exactly the contiguous assignment.
    """
    stage_workers: Dict[int, List[int]] = {}
    next_id = 0
    for s, stage in enumerate(stages):
        step = stage.tp_degree
        stage_workers[s] = list(
            range(next_id, next_id + stage.replicas * step, step))
        next_id += stage.replicas * step
    return stage_workers


def _interleave(*columns: List[int]) -> List[int]:
    """``[a0, b0, ..., a1, b1, ...]`` from equal-length columns."""
    out = [0] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        out[i::len(columns)] = column
    return out


def _straight_stages(num_stages: int,
                     layer_bounds: Optional[Sequence[Tuple[int, int]]]) -> List[Stage]:
    if layer_bounds is None:
        layer_bounds = [(s, s + 1) for s in range(num_stages)]
    return [Stage(b[0], b[1], 1) for b in layer_bounds]


def _fbu_schedule(stages: List[Stage], num_minibatches: int) -> ScheduleTable:
    """Every worker runs forward, backward, update per minibatch, all of
    them (data parallelism) or one at a time (model parallelism)."""
    mbs = list(range(num_minibatches))
    kinds = [FWD, BWD, UPD] * num_minibatches
    mbs = _interleave(mbs, mbs, mbs)
    rows = [(w, s) for s, workers in _assign_workers(stages).items()
            for w in workers]
    return ScheduleTable([w for w, _ in rows], [kinds] * len(rows),
                         [[s] * len(kinds) for _, s in rows],
                         [mbs] * len(rows))


# ----------------------------------------------------------------------
# Straight 1F1B (closed form, Figure 4)
# ----------------------------------------------------------------------

def one_f_one_b_schedule(num_stages: int, num_minibatches: int,
                         layer_bounds: Optional[Sequence[Tuple[int, int]]] = None) -> Schedule:
    """The canonical 1F1B schedule for a straight pipeline.

    Stage ``s`` performs ``num_stages - s`` warmup forward passes, then
    strictly alternates backward/forward, then drains remaining backwards.
    Every backward is immediately followed by that stage's weight update.
    """
    if num_stages < 1:
        raise ValueError("need at least one stage")
    # 1F1B-RR's warm-up on single-replica stages is exactly num_stages - s.
    return one_f_one_b_rr_schedule(_straight_stages(num_stages, layer_bounds),
                                   num_minibatches)


# ----------------------------------------------------------------------
# Generalized 1F1B-RR (logical simulation of the backward-priority rule)
# ----------------------------------------------------------------------

def replica_minibatches(stage: Stage, replica_index: int, num_minibatches: int) -> List[int]:
    """Minibatch ids routed to one replica by the deterministic round-robin
    rule: minibatch ``b`` goes to replica ``b mod r`` (§3.2)."""
    return list(range(replica_index, num_minibatches, stage.replicas))


def warmup_count(stages: Sequence[Stage], stage_index: int) -> int:
    """Startup forward passes per replica of ``stage_index``.

    Generalizes the straight-pipeline warmup of ``num_stages - s`` (Figure 4)
    to replicated stages: a replica must forward enough of *its own*
    minibatches to cover the workers at and downstream of its stage, i.e.
    ``ceil(sum_{t >= s} r_t / r_s)``.  For the input stage this equals NOAM.
    Counts are *physical* (replicas x tp shards): a downstream tp group
    occupies as many in-flight slots as the workers it is built from.
    """
    downstream = sum(
        stage.replicas * stage.tp_degree for stage in stages[stage_index:])
    own = stages[stage_index].replicas * stages[stage_index].tp_degree
    return max(1, math.ceil(downstream / own))


def one_f_one_b_rr_schedule(
    stages: Sequence[Stage],
    num_minibatches: int,
    noam: Optional[int] = None,
    in_flight_per_replica: Optional[int] = None,
) -> Schedule:
    """1F1B-RR for pipelines with replicated stages (§3.2, Figure 8).

    Minibatch ``b`` is deterministically routed to replica ``b mod r_s`` of
    stage ``s`` for both its forward and backward pass.  Each replica runs
    the 1F1B pattern over its own minibatch subsequence: ``warmup_count``
    startup forwards, strict backward/forward alternation in steady state,
    then a drain of remaining backwards.  For a straight pipeline this is
    exactly :func:`one_f_one_b_schedule`.

    ``in_flight_per_replica`` caps the startup depth below the optimal
    warmup — the pipeline-depth knob of Figure 18 (1 = no inter-batch
    pipelining at all, i.e. model/hybrid parallelism on these stages).

    ``noam`` is checked, not read: NOAM is ``warmup_count(stages, 0)``, and
    any other value is a ``ValueError``.
    """
    stages = list(stages)
    derived = warmup_count(stages, 0)
    if noam not in (None, derived):
        raise ValueError(
            f"noam={noam} but these stages admit NOAM={derived}; set the "
            "pipeline depth with in_flight_per_replica")
    stage_workers = _assign_workers(stages)
    table = ScheduleTable([], [], [], [])

    warmups: List[int] = []
    for s, stage in enumerate(stages):
        warmup = warmup_count(stages, s)
        if in_flight_per_replica is not None:
            # Shift every stage's startup depth so the input stage admits
            # exactly ``in_flight_per_replica`` minibatches: shallower than
            # NOAM trades throughput for memory, deeper stashes more
            # versions to hide more communication (Figure 18).
            depth = max(1, in_flight_per_replica)
            delta = depth - derived
            warmup = warmup + delta if delta >= 0 else min(warmup, depth)
        if s > 0:
            # Deadlock-freedom: a stage cannot hold more minibatches than
            # its upstream forwards before blocking on its first backward.
            upstream_global = stages[s - 1].replicas * warmups[s - 1]
            warmup = min(warmup, upstream_global // stage.replicas)
        warmups.append(max(1, warmup))

    for s, stage in enumerate(stages):
        for q, worker in enumerate(stage_workers[s]):
            # The replica's own minibatches: w warm-up forwards, then
            # (backward, update, forward) triples while forwards remain,
            # then the (backward, update) drain.
            own = replica_minibatches(stage, q, num_minibatches)
            w = min(warmups[s], len(own))
            k = len(own) - w
            kinds = [FWD] * w + [BWD, UPD, FWD] * k + [BWD, UPD] * w
            table.workers.append(worker)
            table.kinds.append(kinds)
            table.stages.append([s] * len(kinds))
            table.minibatches.append(
                own[:w] + _interleave(own[:k], own[:k], own[w:])
                + _interleave(own[k:], own[k:]))
    return Schedule(stages, num_minibatches, table, stage_workers)


# ----------------------------------------------------------------------
# Baseline schedules
# ----------------------------------------------------------------------

def model_parallel_schedule(num_stages: int, num_minibatches: int,
                            layer_bounds: Optional[Sequence[Tuple[int, int]]] = None) -> Schedule:
    """Vanilla model parallelism (Figure 2): one minibatch in flight."""
    stages = _straight_stages(num_stages, layer_bounds)
    return Schedule(stages, num_minibatches,
                    _fbu_schedule(stages, num_minibatches))


def gpipe_schedule(
    num_stages: int,
    num_batches: int,
    num_microbatches: int,
    layer_bounds: Optional[Sequence[Tuple[int, int]]] = None,
) -> Schedule:
    """GPipe-style microbatch pipelining with a flush per batch (Figure 3).

    Each batch is split into ``num_microbatches`` microbatches; all forwards
    run, then all backwards, then every stage applies the aggregated update
    and the pipeline flushes before the next batch.  Microbatch ids are
    flattened as ``batch * num_microbatches + micro``.
    """
    stages = _straight_stages(num_stages, layer_bounds)
    m = num_microbatches
    kinds = ([FWD] * m + [BWD] * m + [UPD]) * num_batches
    mbs: List[int] = []
    for base in range(0, num_batches * m, m):
        mbs += range(base, base + m)
        mbs += range(base + m - 1, base - 1, -1)
        mbs.append(base + m - 1)
    return Schedule(stages, num_batches * m, ScheduleTable(
        list(range(num_stages)), [kinds] * num_stages,
        [[s] * len(kinds) for s in range(num_stages)], [mbs] * num_stages))


def data_parallel_schedule(num_workers: int, num_minibatches: int,
                           num_layers: int = 1) -> Schedule:
    """BSP data parallelism: one replicated stage (the degenerate pipeline).

    Worker ``w`` processes minibatch partition ``b`` and synchronizes
    weights after every backward (the UPDATE op doubles as the all_reduce
    marker for the simulator).
    """
    stages = [Stage(0, num_layers, num_workers)]
    return Schedule(stages, num_minibatches,
                    _fbu_schedule(stages, num_minibatches))


def asp_schedule(num_workers: int, num_minibatches: int,
                 num_layers: int = 1) -> Schedule:
    """ASP data parallelism (§5.2) as the one-worker table it equals.

    An asynchronous worker's gradient lands ``num_workers - 1`` updates
    after the pull it was computed on, exactly the staleness of the input
    stage of a ``num_workers``-deep 1F1B pipeline: this is that stage's
    row, on one stage holding the whole model.  Under weight stashing the
    forward of minibatch ``b`` binds version ``max(0, b - num_workers + 1)``.
    """
    row = one_f_one_b_schedule(num_workers, num_minibatches).table
    kinds = row.kinds[0]
    return Schedule([Stage(0, num_layers, 1)], num_minibatches,
                    ScheduleTable([0], [kinds], [[0] * len(kinds)],
                                  [row.minibatches[0]]))


# ----------------------------------------------------------------------
# Schedule families (2BP backward splitting)
# ----------------------------------------------------------------------

def split_backward_schedule(schedule: Schedule) -> Schedule:
    """2BP (2-Stage Backpropagation): split every backward in two.

    Each BACKWARD op becomes the grad-input half (keeping its slot and its
    upstream gradient send) immediately followed by a BACKWARD_W grad-weight
    op on the same worker.  The grad-input half alone gates the upstream
    stage's backward, so the cross-stage backward dependency chain shortens
    while the grad-weight work fills what used to be bubble time.  Total
    compute is conserved exactly: the simulator prices the two halves so
    they sum bitwise to the unsplit backward.

    Works on any base schedule (1F1B, 1F1B-RR, GPipe, MP, DP); UPDATE ops
    keep their position after the (now two-part) backward, so update-round
    membership and weight-sync timing are unchanged.
    """
    if schedule.backward_split:
        raise ValueError("schedule backward pass is already split")
    base = schedule.table
    split = ScheduleTable(list(base.workers), [], [], [])
    for kinds, stages, mbs in zip(base.kinds, base.stages, base.minibatches):
        # Each op expands to itself, and a BACKWARD to (BACKWARD, BACKWARD_W).
        width = list(map(_SPLIT_WIDTH.__getitem__, kinds))
        split.kinds.append(list(chain.from_iterable(
            map(_SPLIT_KINDS.__getitem__, kinds))))
        split.stages.append(list(chain.from_iterable(map(repeat, stages, width))))
        split.minibatches.append(list(chain.from_iterable(
            map(repeat, mbs, width))))
    return Schedule(
        list(schedule.stages), schedule.num_minibatches, split,
        {s: list(w) for s, w in schedule.stage_workers.items()},
        backward_split=True)


_SPLIT_KINDS = ((FWD,), (BWD, BWD_W), (BWD_W,), (UPD,))
_SPLIT_WIDTH = tuple(map(len, _SPLIT_KINDS))


def schedule_for_family(schedule: Schedule, family: str) -> Schedule:
    """Transform a base schedule into the named family.

    ``"1f1b"`` returns ``schedule`` itself (the identity — callers passing
    the default family get the exact original object, so default runs stay
    bitwise-unchanged); ``"2bp"`` applies :func:`split_backward_schedule`.
    """
    if family == "1f1b":
        return schedule
    if family == "2bp":
        return split_backward_schedule(schedule)
    raise ValueError(
        f"unknown schedule family {family!r}; expected one of "
        f"{SCHEDULE_FAMILIES}")


# ----------------------------------------------------------------------
# Validation (the invariants §3.2 and §3.3 rely on)
# ----------------------------------------------------------------------

def validate_schedule(schedule: Schedule) -> None:
    """Check the structural invariants of a pipeline schedule.

    - every (stage, minibatch) has exactly one forward and one backward;
    - forward and backward of a minibatch run on the *same* replica
      (required for weight stashing and intermediate-state reuse);
    - per-worker order: a minibatch's backward never precedes its forward;
    - there is a consistent global order (the cross-worker dependency graph
      forward chain + backward chain is acyclic by construction; we verify
      per-stage forward order matches minibatch order per replica).

    Raises ``ValueError`` on violation.
    """
    seen_f: Dict[Tuple[int, int], int] = {}
    seen_b: Dict[Tuple[int, int], int] = {}
    seen_w: Dict[Tuple[int, int], int] = {}
    for worker, ops in schedule.worker_ops.items():
        position: Dict[Tuple[OpKind, int, int], int] = {}
        for idx, op in enumerate(ops):
            key = (op.kind, op.stage, op.minibatch)
            if key in position and op.kind != OpKind.UPDATE:
                raise ValueError(f"duplicate op {op} on worker {worker}")
            position[key] = idx
        for op in ops:
            if op.kind == OpKind.FORWARD:
                seen_f[(op.stage, op.minibatch)] = worker
            elif op.kind == OpKind.BACKWARD:
                seen_b[(op.stage, op.minibatch)] = worker
                fkey = (OpKind.FORWARD, op.stage, op.minibatch)
                bkey = (OpKind.BACKWARD, op.stage, op.minibatch)
                if fkey in position and position[bkey] < position[fkey]:
                    raise ValueError(
                        f"backward before forward for mb {op.minibatch} "
                        f"stage {op.stage} on worker {worker}"
                    )
            elif op.kind == OpKind.BACKWARD_W:
                seen_w[(op.stage, op.minibatch)] = worker
                bkey = (OpKind.BACKWARD, op.stage, op.minibatch)
                wkey = (OpKind.BACKWARD_W, op.stage, op.minibatch)
                if bkey not in position:
                    raise ValueError(
                        f"grad-weight op {op} without its grad-input "
                        f"backward on worker {worker}"
                    )
                if position[wkey] < position[bkey]:
                    raise ValueError(
                        f"grad-weight before grad-input for mb "
                        f"{op.minibatch} stage {op.stage} on worker {worker}"
                    )

    for s in range(schedule.num_stages):
        for mb in range(schedule.num_minibatches):
            if (s, mb) not in seen_f:
                raise ValueError(f"missing forward for stage {s} mb {mb}")
            if (s, mb) not in seen_b:
                raise ValueError(f"missing backward for stage {s} mb {mb}")
            if seen_f[(s, mb)] != seen_b[(s, mb)]:
                raise ValueError(
                    f"forward/backward replica mismatch for stage {s} mb {mb}: "
                    f"{seen_f[(s, mb)]} vs {seen_b[(s, mb)]}"
                )
            if schedule.backward_split and (s, mb) not in seen_w:
                raise ValueError(
                    f"missing grad-weight op for stage {s} mb {mb} in a "
                    f"backward-split schedule"
                )

    _check_executable(schedule)


def _check_executable(schedule: Schedule) -> None:
    """Verify the static schedule is deadlock-free (a stalled walk raises)."""
    for _ in lockstep_walk(schedule):
        pass


def op_ready(done: Set[Tuple[int, int, int]], last_stage: int,
             kind: int, stage: int, minibatch: int) -> bool:
    """Whether an op's cross-worker input exists, given the ``(kind,
    stage, minibatch)`` codes of the ops already run.

    A FORWARD needs its minibatch's forward on the stage before; a
    BACKWARD needs the backward on the stage after (on the output stage,
    its own forward).  BACKWARD_W and UPDATE follow their backward on the
    same worker, so they are ready once reached.
    """
    if kind == FWD:
        return stage == 0 or (FWD, stage - 1, minibatch) in done
    if kind == BWD:
        if stage == last_stage:
            return (FWD, stage, minibatch) in done
        return (BWD, stage + 1, minibatch) in done
    return True


def lockstep_walk(schedule: Schedule) -> Iterator[Tuple[int, int, int, int]]:
    """Run ``schedule``'s table in lockstep sweeps, yielding each op as it runs.

    Every sweep visits the workers in ascending id order and runs at most
    one op per worker — its next one, if :func:`op_ready`.  Yields
    ``(worker, kind code, stage, minibatch)``; the op counts as done once
    the consumer resumes the walk.  Readiness only ever grows, so a sweep
    that runs nothing means no order could finish the schedule: the walk
    then raises ``ValueError`` naming each blocked worker's next op.
    """
    table = schedule.table
    last_stage = schedule.num_stages - 1
    ranks = sorted(range(len(table.workers)), key=table.workers.__getitem__)
    pointers = [0] * len(table.workers)
    done: Set[Tuple[int, int, int]] = set()
    remaining = sum(map(len, table.kinds))
    while remaining:
        progressed = False
        for rank in ranks:
            i = pointers[rank]
            if i == len(table.kinds[rank]):
                continue
            op = table.kinds[rank][i], table.stages[rank][i], table.minibatches[rank][i]
            if not op_ready(done, last_stage, *op):
                continue
            yield (table.workers[rank], *op)
            done.add(op)
            pointers[rank] = i + 1
            remaining -= 1
            progressed = True
        if not progressed:
            blocked = {table.workers[rank]: table.ops(rank)[i]
                       for rank, i in enumerate(pointers)
                       if i < len(table.kinds[rank])}
            raise ValueError(f"schedule deadlocks; blocked ops: {blocked}")
