"""Gradient bucketing: DDP-style fusion of per-layer allreduce payloads.

Real data-parallel stacks do not all_reduce one gradient per layer, nor
one monolithic payload per step: they fuse gradients into bounded
*buckets* (PyTorch DDP's ``bucket_cap_mb``, the fused-buffer transform in
tau's ``spmd/compiler/fusion.py``) and launch each bucket's collective as
soon as the backward pass has produced its last gradient — so the
allreduce of layer ``l`` overlaps the backward of layers ``< l``
(wait-free backprop).  The bucket size is a genuine tradeoff once
collectives carry a fixed setup latency α (see
:class:`~repro.core.topology.TopologyLevel.allreduce_latency`): small
buckets start earlier and hide more of their cost under compute but pay
α per bucket; one giant bucket pays α once but cannot start until the
very last gradient exists and is therefore fully exposed.

This module is the single source of bucket boundaries for the analytic
evaluator (``core/partition.py``) and the discrete-event simulator
(``sim/executor.py``), so both pricing stacks fuse identically:

- Buckets are formed in *backward* (reverse-layer) order — the order
  gradients materialize.
- Only streamable payloads are bucketed: layers whose kind is in
  :data:`~repro.core.profile.RECURRENT_KINDS` accumulate their
  gradients across the whole BPTT backward pass, cannot fire early, and
  stay one single post-backward payload (exactly the
  ``sync_deferred`` split the simulator already makes).
- A bucket closes when adding the next gradient would push it past
  ``bucket_bytes``; a single gradient larger than ``bucket_bytes`` gets
  a bucket of its own.
- A bucket is *ready* when the backward of its lowest layer index
  completes; :attr:`GradientBucket.ready_fraction` expresses that
  instant as a fraction of the stage's backward duration, so callers on
  any compute scale (evaluator, simulator, stragglers) can place it on
  their own timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.profile import RECURRENT_KINDS, ModelProfile


@dataclass(frozen=True)
class GradientBucket:
    """One fused streamable-gradient payload of a stage.

    ``first_layer``/``last_layer`` are the inclusive layer-index range
    whose gradients the bucket carries (only payload-bearing,
    non-recurrent layers in between contribute bytes).  The bucket is
    complete — and its collective may fire — when the backward of
    ``first_layer`` finishes, i.e. when ``ready_fraction`` of the
    stage's backward pass has elapsed.
    """

    payload_bytes: int
    first_layer: int
    last_layer: int
    ready_fraction: float


def gradient_buckets(
    profile: ModelProfile, start: int, stop: int, bucket_bytes: float
) -> Tuple[GradientBucket, ...]:
    """Fuse the streamable gradients of layers ``[start, stop)``.

    Returns buckets in firing order (the order backward produces them:
    highest layers first).  Ready fractions are non-decreasing along the
    returned tuple, so a serialized comm-channel walk over it never
    reorders.
    """
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
    layers = profile.layers[start:stop]
    # elapsed_after[offset] = backward seconds elapsed (from the stage's
    # backward start) once the layer at ``start + offset`` has finished
    # its backward — the instant any bucket ending at that layer is ready.
    backward_total = 0.0
    elapsed_after = [0.0] * len(layers)
    for offset in range(len(layers) - 1, -1, -1):
        backward_total += layers[offset].backward
        elapsed_after[offset] = backward_total

    spans: List[Tuple[int, int, int]] = []  # (payload, first, last)
    fill = 0
    first = last = -1
    for offset in range(len(layers) - 1, -1, -1):
        layer = layers[offset]
        if layer.kind in RECURRENT_KINDS or layer.weight_bytes <= 0:
            continue
        if fill and fill + layer.weight_bytes > bucket_bytes:
            spans.append((fill, first, last))
            fill = 0
            last = -1
        if fill == 0:
            last = offset
        first = offset
        fill += layer.weight_bytes
    if fill:
        spans.append((fill, first, last))

    return tuple(
        GradientBucket(
            payload,
            start + first,
            start + last,
            elapsed_after[first] / backward_total if backward_total > 0 else 1.0,
        )
        for payload, first, last in spans
    )


def stream_bucket_count(
    profile: ModelProfile, start: int, stop: int, bucket_bytes: float
) -> int:
    """Number of buckets :func:`gradient_buckets` would form (no objects)."""
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
    count = 0
    fill = 0
    for layer in reversed(profile.layers[start:stop]):
        if layer.kind in RECURRENT_KINDS or layer.weight_bytes <= 0:
            continue
        if fill and fill + layer.weight_bytes > bucket_bytes:
            count += 1
            fill = 0
        fill += layer.weight_bytes
    return count + (1 if fill else 0)


def stream_bucket_count_table(
    profile: ModelProfile, bucket_bytes: float
) -> List[List[int]]:
    """``table[i][j]`` = bucket count of the layer span ``i..j`` inclusive.

    Built in O(n²): for a fixed span end ``j`` the backward walk only
    *extends* as ``i`` decreases, so one pass per column fills it.  The
    planner's per-level DP reads this to charge ``N·α`` setup latency per
    replicated span without re-walking layers per (span, replica) cell.
    """
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
    layers = profile.layers
    n = len(layers)
    table = [[0] * n for _ in range(n)]
    for j in range(n):
        closed = 0
        fill = 0
        for i in range(j, -1, -1):
            layer = layers[i]
            if layer.kind not in RECURRENT_KINDS and layer.weight_bytes > 0:
                if fill and fill + layer.weight_bytes > bucket_bytes:
                    closed += 1
                    fill = 0
                fill += layer.weight_bytes
            table[i][j] = closed + (1 if fill else 0)
    return table
