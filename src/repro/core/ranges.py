"""The per-profile range table: prefix sums of §3.1's ``(T_l, a_l, w_l)``.

Every consumer that prices a layer span reads its sums from one
:class:`RangeTable` — both DPs, :func:`repro.sim.network.stage_terms`
and the §3.3 memory helpers — so the sum of a quantity over layers
``[start, stop)`` is always ``prefix[stop] - prefix[start]`` of the same
list, seconds then divided by the topology's ``compute_scale``.  The
event engine and the topology evaluator share one float expression on
top of those differences, ``stage_terms``; the DPs' batched planes spell
the same expression over every span at once (a tier-1 test holds them
bitwise equal at ``compute_scale`` 1.0, 0.5 and 0.4).

Prefixes accumulate sequentially in python (seconds as floats, bytes as
exact ints), never through ``np.cumsum`` / ``np.sum``, whose pairwise
order would change the float bits the DP oracles compare.  Tables are
cached by profile digest in one bounded LRU, fronted by
:func:`eval_tables_stats` / :func:`clear_eval_tables`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict

from repro.core.profile import RECURRENT_KINDS, ModelProfile
from repro.core.sharding import SHARDABLE_KINDS
from repro.utils.lru import LRUCache


class RangeTable:
    """Prefix sums (length ``n + 1``) of one profile's per-layer columns.

    ``compute`` / ``backward`` (seconds), ``weights`` / ``acts`` (bytes)
    and their ``shard_*`` twins over the layers whose kind is in
    :data:`~repro.core.sharding.SHARDABLE_KINDS` — the share a
    tensor-parallel degree divides; ``deferred`` sums the weights of
    :data:`~repro.core.profile.RECURRENT_KINDS` layers.  ``out_bytes[l]``
    is layer ``l``'s output activation (a stage boundary's payload) and
    ``in_bytes[l]`` the input boundary of a stage starting at ``l`` (0 at
    layer 0, which reads training data).  Columns are tuples: one table
    is shared by every caller holding an equal profile.
    """

    __slots__ = (
        "compute", "backward", "weights", "acts", "deferred",
        "shard_compute", "shard_backward", "shard_weights", "shard_acts",
        "out_bytes", "in_bytes",
    )

    def __init__(self, profile: ModelProfile):
        layers = profile.layers

        def prefix(values, zero) -> tuple:
            return tuple(accumulate(values, initial=zero))

        def with_shard(column, zero):
            return (
                prefix(map(column, layers), zero),
                prefix((column(l) if l.kind in SHARDABLE_KINDS else zero
                        for l in layers), zero),
            )

        self.compute, self.shard_compute = with_shard(
            lambda l: l.compute_time, 0.0)
        self.backward, self.shard_backward = with_shard(
            lambda l: l.backward, 0.0)
        self.weights, self.shard_weights = with_shard(
            lambda l: l.weight_bytes, 0)
        self.acts, self.shard_acts = with_shard(
            lambda l: l.activation_bytes, 0)
        self.deferred = prefix(
            (l.weight_bytes if l.kind in RECURRENT_KINDS else 0
             for l in layers), 0)
        self.out_bytes = tuple(l.activation_bytes for l in layers)
        self.in_bytes = (0,) + self.out_bytes[:-1]


#: Bounded, lock-guarded registry of range tables keyed by content digest:
#: equal-valued profiles share one table, and a long-lived server holds a
#: working set rather than every profile it ever saw.
_TABLES = LRUCache(capacity=64, name="eval_tables")


def range_table(profile: ModelProfile) -> RangeTable:
    """The (shared, cached) range table of ``profile``."""
    return _TABLES.get_or_create(profile.digest(), lambda: RangeTable(profile))


def eval_tables_stats() -> Dict[str, object]:
    """Hit/miss/eviction snapshot of the shared range-table cache."""
    return _TABLES.stats()


def clear_eval_tables() -> None:
    """Drop the shared range tables (tests and benchmarks use this to
    measure a true cold path)."""
    _TABLES.clear()
