"""The simulator's full-rescan oracle.

:func:`simulate_reference` is :func:`repro.sim.executor.simulate` with the
event-driven loop replaced by the loop it was derived from: commit the
globally earliest ready op, re-evaluating every rank's head op after each
commit — O(ops x workers).  It shares production's
:class:`~repro.sim.executor._SimCore` *state* (precomputed durations, the
flat ``dep`` list, channel and sync clocks) and the round commit
``_SimCore._execute_update``; readiness (:func:`ready_time`), the op commit
(:func:`execute`) and point-to-point transfers (:func:`send`) are written
here, independently of the engine's inlined loop, and call the one fault
arithmetic (``FaultSchedule.compute_end`` / ``bandwidth_factor``) on their
own.  It never asks ``_SimCore`` to collapse interchangeable BSP ranks
into one row, so it checks the engine's fan-out against a run of every
rank.  The tier-1 suites assert *bitwise* agreement of the whole
:class:`~repro.sim.executor.OpRecord` timeline, faulted and fault-free.
Nothing under ``src/`` imports this module (``tests/test_src_imports.py``).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.profile import ModelProfile
from repro.core.schedule import BWD, BWD_W, FWD, UPD, Schedule
from repro.core.topology import Topology
from repro.sim.executor import SimOptions, SimResult, _SimCore, simulate


def ready_time(core: _SimCore, rank: int, kind: int, s: int,
               b: int) -> Optional[float]:
    """Earliest start of op ``(kind, s, b)`` at the head of ``rank``, or
    None while one of its dependencies is unresolved."""
    t = core.worker_free[rank]
    if kind in (UPD, BWD_W):  # wait on nothing but the worker
        return t
    sB = s * core.B
    waits_on = []
    if kind == FWD:
        if s > 0:  # the activation from upstream
            waits_on.append(sB + b)
        rnd = b // core.round_div[s]
        if core.gated_forward and rnd > 0:  # BSP / GPipe: previous round
            waits_on.append(core.UD_OFF + sB + rnd - 1)
    else:
        # The last stage's backward consumes its own forward; the others
        # the gradient from downstream.
        waits_on.append(core.fe_base[rank] + b if s == core.last_stage
                        else core.AB_OFF + sB + b)
        rnd = b // core.round_div[s]
        if core.pd_gated[s] and rnd >= 2:  # bounded staleness: 2 rounds
            waits_on.append(core.UD_OFF + sB + rnd - 2)
    for slot in waits_on:
        when = core.dep[slot]
        if when is None:
            return None
        t = max(t, when)
    return t


def send(core: _SimCore, src: int, dst: int, num_bytes: float,
         ready: float, slot: int) -> None:
    """Ship a boundary tensor from worker ``src`` to ``dst``; it arrives in
    ``core.dep[slot]``."""
    if src == dst or num_bytes <= 0:
        core.dep[slot] = ready
        return
    link = (src, dst)
    duration = num_bytes / core.placement.link_bandwidth(src, dst)
    begin = max(ready, core.channel_free[link])
    nic = core.options.nic_contention
    if nic:
        begin = max(begin, core.nic_send_free[src], core.nic_recv_free[dst])
    if core.faults is not None:
        duration *= core.faults.bandwidth_factor(
            src, dst, begin, core.placement.link_level(src, dst))
    done = begin + duration
    if nic:
        core.nic_send_free[src] = done
        core.nic_recv_free[dst] = done
    core.channel_free[link] = done
    core.channel_busy[link] += duration
    core.dep[slot] = done


def execute(core: _SimCore, rank: int, kind: int, s: int, b: int,
            start: float) -> None:
    """Commit op ``(kind, s, b)`` of ``rank`` at ``start``."""
    if kind == UPD:
        end = core._execute_update(rank, s, b, start)
    else:
        per_stage = {FWD: core.fwd_time, BWD: core.bwd_time,
                     BWD_W: core.bwd_w_time}[kind]
        busy = per_stage[s] / core.speed[rank]
        if core.faults is None:
            end = start + busy
        else:
            end = core.faults.compute_end(core.workers[rank], start, busy)
            busy = end - start
        core.compute_time[rank] += busy
        core.worker_free[rank] = end
        worker = core.workers[rank]
        if kind == FWD:
            if s < core.last_stage:
                group = core.stage_workers_list[s + 1]
                send(core, worker, group[b % len(group)],
                     core.boundary_bytes[s], end, (s + 1) * core.B + b)
            else:
                core.dep[core.fe_base[rank] + b] = end
        elif kind == BWD:
            if not core.update_simple[s]:
                core.bwd_start[rank * core.nk + s * core.B + b] = start
            if s > 0:
                group = core.stage_workers_list[s - 1]
                send(core, worker, group[b % len(group)],
                     core.boundary_bytes[s - 1], end,
                     core.AB_OFF + (s - 1) * core.B + b)
            else:
                core.minibatch_done[b] = end
        # BWD_W (the 2BP grad-weight half) is local compute only.
    core.log_rank.append(rank)
    core.log_start.append(start)
    core.log_end.append(end)


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
            t = ready_time(core, rank, *head(rank))
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
        # _execute_update reports into these; the rescan reads neither.
        core.fired.clear()
        core.bumped.clear()
        execute(core, best_rank, *head(best_rank), best_time)
        pointers[best_rank] += 1
        committed += 1
    return core.result()


#: The engine and its oracle by name, for tests parametrised over both.
ENGINES = {"event": simulate, "reference": simulate_reference}
