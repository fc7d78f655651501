"""The simulator's full-rescan oracle.

:func:`simulate_reference` is :func:`repro.sim.executor.simulate` with the
event-driven main loop replaced by the loop it was derived from: commit the
globally earliest ready op, re-evaluating every rank's head op after each
commit — O(ops x workers).  State, readiness and commit arithmetic are
production's own :class:`~repro.sim.executor._SimCore`
(``_ready_or_key`` minus the key, ``execute``), so the tier-1 suites assert
*bitwise* agreement of the whole :class:`~repro.sim.executor.OpRecord`
timeline.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.profile import ModelProfile
from repro.core.schedule import Schedule
from repro.core.topology import Topology
from repro.sim.executor import SimOptions, SimResult, _SimCore, simulate


def simulate_reference(
    schedule: Schedule,
    profile: ModelProfile,
    topology: Topology,
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Execute ``schedule`` by rescanning every rank on every commit."""
    core = _SimCore(schedule, profile, topology, options or SimOptions())
    pointers = [0] * len(core.workers)
    total_ops = sum(len(kinds) for kinds in core.kinds)

    def head(rank):
        i = pointers[rank]
        return core.kinds[rank][i], core.stage_of[rank][i], core.mb_of[rank][i]

    committed = 0
    while committed < total_ops:
        best_rank = None
        best_time = math.inf
        for rank in range(len(core.workers)):
            if pointers[rank] >= len(core.kinds[rank]):
                continue
            t = core._ready_or_key(rank, *head(rank))[0]
            if t is not None and t < best_time:
                best_time = t
                best_rank = rank
        if best_rank is None:
            raise core._deadlock(pointers)
        if core.halt_time is not None and best_time >= core.halt_time:
            # A worker crashed: the globally earliest startable op is
            # already past the crash instant, so nothing else starts.
            core.halted = True
            break
        core.fired.clear()
        core.bumped.clear()
        core.execute(best_rank, *head(best_rank), best_time)
        pointers[best_rank] += 1
        committed += 1
    return core.result()


#: The engine and its oracle by name, for tests parametrised over both.
ENGINES = {"event": simulate, "reference": simulate_reference}
