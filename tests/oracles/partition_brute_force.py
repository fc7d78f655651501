"""Exhaustive search over flat partitions — the planner's optimality oracle.

Nothing under ``src/`` imports this module.  Each plan is priced by the
closed-form oracle evaluator, so the search stays independent of the
production pricing loop.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Tuple

from repro.core.partition import Stage
from repro.core.profile import ModelProfile
from repro.core.topology import Topology
from tests.oracles.evaluator_closed_form import evaluate_details_closed_form


def brute_force_partition(
    profile: ModelProfile,
    topology: Topology,
    allow_replication: bool = True,
) -> Tuple[List[Stage], float]:
    """Exhaustively search flat partitions of a single-level topology.

    Enumerates every contiguous split into stages and every assignment of
    the available workers to stages, evaluates each with the same cost model
    as the DP, and returns the best.  Exponential — only for small tests.
    """
    if topology.num_levels != 1:
        raise ValueError("brute force supports single-level topologies only")
    n = len(profile)
    workers = topology.total_workers
    best: Tuple[Optional[List[Stage]], float] = (None, math.inf)

    for num_stages in range(1, min(n, workers) + 1):
        for cuts in itertools.combinations(range(1, n), num_stages - 1):
            bounds = [0, *cuts, n]
            spans = list(zip(bounds[:-1], bounds[1:]))
            for alloc in _compositions(workers, num_stages):
                if not allow_replication and any(a != 1 for a in alloc):
                    continue
                stages = [Stage(s, e, a) for (s, e), a in zip(spans, alloc)]
                cost = evaluate_details_closed_form(
                    profile, stages, topology).bottleneck_time
                if cost < best[1] - 1e-15:
                    best = (stages, cost)
    assert best[0] is not None
    return best[0], best[1]


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered sum of ``parts`` positives."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)
