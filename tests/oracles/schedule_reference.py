"""The schedule builders' oracle: every family built op by op.

Each builder here materialises one :class:`~repro.core.schedule.Op` per
scheduled operation by walking the family's rule step by step — the
direct transcription of §3.2 (Figures 2-4 and 8) and of 2BP.
Production's builders in :mod:`repro.core.schedule` emit the same
schedules as int tables by slice arithmetic; the tier-1 suite asserts
that their ``worker_ops`` views, worker order and ``stage_workers``
equal these exactly.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partition import Stage
from repro.core.schedule import (
    Op,
    OpKind,
    Schedule,
    _assign_workers,
    compute_noam,
    replica_minibatches,
    warmup_count,
)


def one_f_one_b_schedule(num_stages: int, num_minibatches: int,
                         layer_bounds: Optional[Sequence[Tuple[int, int]]] = None) -> Schedule:
    """The canonical 1F1B schedule for a straight pipeline."""
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if layer_bounds is None:
        layer_bounds = [(s, s + 1) for s in range(num_stages)]
    stages = [Stage(b[0], b[1], 1) for b in layer_bounds]
    stage_workers = _assign_workers(stages)
    worker_ops: Dict[int, List[Op]] = {}
    for s in range(num_stages):
        ops: List[Op] = []
        warmup = min(num_stages - s, num_minibatches)
        fwd = bwd = 0
        for _ in range(warmup):
            ops.append(Op(OpKind.FORWARD, s, fwd))
            fwd += 1
        while bwd < num_minibatches:
            ops.append(Op(OpKind.BACKWARD, s, bwd))
            ops.append(Op(OpKind.UPDATE, s, bwd))
            bwd += 1
            if fwd < num_minibatches:
                ops.append(Op(OpKind.FORWARD, s, fwd))
                fwd += 1
        worker_ops[stage_workers[s][0]] = ops
    return Schedule(
        stages=stages,
        num_minibatches=num_minibatches,
        worker_ops=worker_ops,
        stage_workers=stage_workers,
        noam=num_stages,
    )


def one_f_one_b_rr_schedule(
    stages: Sequence[Stage],
    num_minibatches: int,
    noam: Optional[int] = None,
    in_flight_per_replica: Optional[int] = None,
) -> Schedule:
    """1F1B-RR for pipelines with replicated stages (§3.2, Figure 8)."""
    stages = list(stages)
    if noam is None:
        noam = compute_noam(stages)
    stage_workers = _assign_workers(stages)
    worker_ops: Dict[int, List[Op]] = {}

    warmups: List[int] = []
    for s, stage in enumerate(stages):
        warmup = warmup_count(stages, s)
        if in_flight_per_replica is not None:
            depth = max(1, in_flight_per_replica)
            delta = depth - compute_noam(stages)
            warmup = warmup + delta if delta >= 0 else min(warmup, depth)
        if s > 0:
            upstream_global = stages[s - 1].replicas * warmups[s - 1]
            warmup = min(warmup, upstream_global // stage.replicas)
        warmups.append(max(1, warmup))

    for s, stage in enumerate(stages):
        warmup = warmups[s]
        for q, worker in enumerate(stage_workers[s]):
            own = replica_minibatches(stage, q, num_minibatches)
            ops: List[Op] = []
            fwd = bwd = 0
            for _ in range(min(warmup, len(own))):
                ops.append(Op(OpKind.FORWARD, s, own[fwd]))
                fwd += 1
            while bwd < len(own):
                ops.append(Op(OpKind.BACKWARD, s, own[bwd]))
                ops.append(Op(OpKind.UPDATE, s, own[bwd]))
                bwd += 1
                if fwd < len(own):
                    ops.append(Op(OpKind.FORWARD, s, own[fwd]))
                    fwd += 1
            worker_ops[worker] = ops
    return Schedule(
        stages=stages,
        num_minibatches=num_minibatches,
        worker_ops=worker_ops,
        stage_workers=stage_workers,
        noam=noam,
    )


def model_parallel_schedule(num_stages: int, num_minibatches: int,
                            layer_bounds: Optional[Sequence[Tuple[int, int]]] = None) -> Schedule:
    """Vanilla model parallelism (Figure 2): one minibatch in flight."""
    if layer_bounds is None:
        layer_bounds = [(s, s + 1) for s in range(num_stages)]
    stages = [Stage(b[0], b[1], 1) for b in layer_bounds]
    stage_workers = _assign_workers(stages)
    worker_ops: Dict[int, List[Op]] = {stage_workers[s][0]: [] for s in range(num_stages)}
    for mb in range(num_minibatches):
        for s in range(num_stages):
            worker_ops[stage_workers[s][0]].append(Op(OpKind.FORWARD, s, mb))
        for s in reversed(range(num_stages)):
            worker_ops[stage_workers[s][0]].append(Op(OpKind.BACKWARD, s, mb))
            worker_ops[stage_workers[s][0]].append(Op(OpKind.UPDATE, s, mb))
    return Schedule(
        stages=stages,
        num_minibatches=num_minibatches,
        worker_ops=worker_ops,
        stage_workers=stage_workers,
        noam=1,
    )


def gpipe_schedule(
    num_stages: int,
    num_batches: int,
    num_microbatches: int,
    layer_bounds: Optional[Sequence[Tuple[int, int]]] = None,
) -> Schedule:
    """GPipe-style microbatch pipelining with a flush per batch (Figure 3)."""
    if layer_bounds is None:
        layer_bounds = [(s, s + 1) for s in range(num_stages)]
    stages = [Stage(b[0], b[1], 1) for b in layer_bounds]
    stage_workers = _assign_workers(stages)
    worker_ops: Dict[int, List[Op]] = {stage_workers[s][0]: [] for s in range(num_stages)}
    for batch in range(num_batches):
        base = batch * num_microbatches
        for s in range(num_stages):
            ops = worker_ops[stage_workers[s][0]]
            for micro in range(num_microbatches):
                ops.append(Op(OpKind.FORWARD, s, base + micro))
        for s in reversed(range(num_stages)):
            ops = worker_ops[stage_workers[s][0]]
            for micro in reversed(range(num_microbatches)):
                ops.append(Op(OpKind.BACKWARD, s, base + micro))
            ops.append(Op(OpKind.UPDATE, s, base + num_microbatches - 1))
    return Schedule(
        stages=stages,
        num_minibatches=num_batches * num_microbatches,
        worker_ops=worker_ops,
        stage_workers=stage_workers,
        noam=num_microbatches,
    )


def data_parallel_schedule(num_workers: int, num_minibatches: int,
                           num_layers: int = 1) -> Schedule:
    """BSP data parallelism: one replicated stage (the degenerate pipeline)."""
    stages = [Stage(0, num_layers, num_workers)]
    stage_workers = _assign_workers(stages)
    worker_ops: Dict[int, List[Op]] = {}
    for w in stage_workers[0]:
        ops: List[Op] = []
        for mb in range(num_minibatches):
            ops.append(Op(OpKind.FORWARD, 0, mb))
            ops.append(Op(OpKind.BACKWARD, 0, mb))
            ops.append(Op(OpKind.UPDATE, 0, mb))
        worker_ops[w] = ops
    return Schedule(
        stages=stages,
        num_minibatches=num_minibatches,
        worker_ops=worker_ops,
        stage_workers=stage_workers,
        noam=1,
    )


def split_backward_schedule(schedule: Schedule) -> Schedule:
    """2BP: every BACKWARD op followed by its BACKWARD_W on the same worker."""
    if schedule.backward_split:
        raise ValueError("schedule backward pass is already split")
    worker_ops: Dict[int, List[Op]] = {}
    for worker, ops in schedule.worker_ops.items():
        out: List[Op] = []
        for op in ops:
            out.append(op)
            if op.kind is OpKind.BACKWARD:
                out.append(Op(OpKind.BACKWARD_W, op.stage, op.minibatch))
        worker_ops[worker] = out
    return Schedule(
        stages=list(schedule.stages),
        num_minibatches=schedule.num_minibatches,
        worker_ops=worker_ops,
        stage_workers={s: list(w) for s, w in schedule.stage_workers.items()},
        noam=schedule.noam,
        backward_split=True,
    )
