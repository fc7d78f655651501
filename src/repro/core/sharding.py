"""Per-layer-kind tensor-parallel shardability registry.

The hybrid 3D planner treats a stage as ``replicas x tp_degree``: within
each replica, ``tp_degree`` consecutive physical workers hold a shard of
every *shardable* layer (Megatron-style intra-layer parallelism), while
non-shardable layers stay replicated inside the tp group.  This module is
the single source of truth for which operator families shard and along
which dimension:

- ``fc`` / ``linear`` shard the output-features dimension (column
  parallel); the matching row-parallel pair reduces partial sums on the
  way out, which is what the boundary-activation collective prices.
- ``conv`` shards output channels.
- ``attention`` shards heads.
- BPTT-accumulated kinds (``lstm``, ``embedding`` —
  :data:`~repro.core.profile.RECURRENT_KINDS`) are deliberately *not*
  shardable: their recurrent state and gather-style lookups do not
  decompose along a single contract dimension, so a tp group replicates
  them.  Unknown kinds are conservatively unshardable.

The registry is intentionally disjoint from ``RECURRENT_KINDS``
(asserted by the test suite).

Everything downstream — the shared memory kernel's shard divisor, the
planner's ``(replicas, tp_degree)`` cell pricing, the simulator's
intra-stage collectives — reads its shardable weight/activation/compute
splits from the ``shard_*`` columns of the one range table
(:mod:`repro.core.ranges`), so the consumers can never disagree on
*what* shards, only on the degree they plug in.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Sequence, Tuple

#: Operator family -> the dimension a tp shard partitions.  Membership in
#: this mapping *is* the shardability predicate.
SHARDABLE_KINDS: Dict[str, str] = {
    "fc": "out_features",
    "linear": "out_features",
    "conv": "out_channels",
    "attention": "heads",
}


def is_shardable(kind: str) -> bool:
    """Whether layers of ``kind`` can be tensor-parallel sharded."""
    return kind in SHARDABLE_KINDS


def validate_tp_degrees(tp_degrees: Sequence[int]) -> Tuple[int, ...]:
    """Normalize a tp-degree menu: ints >= 1, deduplicated, ascending,
    with degree 1 always present (the planner must always be allowed to
    *not* shard a stage).  Booleans, non-numbers and non-finite or
    non-integral values (JSON ``1e400`` parses to ``inf``) are rejected
    with the same ``ValueError``."""
    degrees = set()
    for t in tp_degrees:
        if (isinstance(t, bool) or not isinstance(t, numbers.Real)
                or not math.isfinite(t) or int(t) != t or t < 1):
            raise ValueError(
                f"tp degrees must be positive integers, got {t!r}")
        degrees.add(int(t))
    degrees.add(1)
    return tuple(sorted(degrees))

