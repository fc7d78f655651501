"""The simulator's full-rescan oracle.

:func:`simulate_reference` is :func:`repro.sim.executor.simulate` with the
event-driven main loop replaced by the loop it was derived from: commit the
globally earliest ready op, re-evaluating every worker's head op after each
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
    """Execute ``schedule`` by rescanning every worker on every commit."""
    core = _SimCore(schedule, profile, topology, options or SimOptions())
    pointers = {w: 0 for w in core.workers}
    total_ops = sum(len(ops) for ops in core.ops_by_rank)
    committed = 0
    while committed < total_ops:
        best_worker = None
        best_time = math.inf
        for rank, worker in enumerate(core.workers):
            ops = core.ops_by_rank[rank]
            idx = pointers[worker]
            if idx >= len(ops):
                continue
            t = core._ready_or_key(worker, ops[idx])[0]
            if t is not None and t < best_time:
                best_time = t
                best_worker = worker
        if best_worker is None:
            raise core._deadlock(pointers)
        if core.halt_time is not None and best_time >= core.halt_time:
            # A worker crashed: the globally earliest startable op is
            # already past the crash instant, so nothing else starts.
            core.halted = True
            break
        op = schedule.worker_ops[best_worker][pointers[best_worker]]
        core.fired.clear()
        core.bumped.clear()
        core.execute(best_worker, op, best_time)
        pointers[best_worker] += 1
        committed += 1
    return core.result()


#: The engine and its oracle by name, for tests parametrised over both.
ENGINES = {"event": simulate, "reference": simulate_reference}
