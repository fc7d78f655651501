"""The simulator's full-rescan oracle.

:func:`simulate_reference` is :func:`repro.sim.executor.simulate` with the
event-driven loop replaced by the loop it was derived from: commit the
globally earliest ready op, re-evaluating every rank's head op after each
commit — O(ops x workers).  It reads production's
:class:`~repro.sim.executor._SimCore` for the precomputed durations, the
flat ``dep`` layout and the per-stage sync clocks; readiness
(:func:`ready_time`), the op commit (:func:`execute`), the round commit
(:func:`commit_update`) and point-to-point transfers (:func:`send`) are
written here, independently of the engine's inlined loop, over the
oracle's own channel, NIC, compute and round dicts (:class:`Run`), and call
the one fault arithmetic (``FaultSchedule.compute_end`` /
``bandwidth_factor``) on their own.  It never asks ``_SimCore`` to
collapse interchangeable BSP ranks into one row, so it checks the
engine's fan-out against a run of every rank.  The tier-1 suites assert
*bitwise* agreement of the whole :class:`~repro.sim.executor.OpRecord`
timeline and of every aggregate dict in insertion order, faulted and
fault-free.  Nothing under ``src/`` imports this module
(``tests/test_src_imports.py``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional

from repro.core.profile import ModelProfile
from repro.core.schedule import BWD, BWD_W, FWD, UPD, Schedule
from repro.core.topology import Topology
from repro.sim.executor import SimOptions, SimResult, _SimCore, simulate


class Run:
    """The oracle's mutable state beside the shared ``_SimCore``: dicts
    keyed the way the aggregates are reported, filled in commit order."""

    def __init__(self, core: _SimCore):
        self.core = core
        self.channel_free = defaultdict(float)  # (src, dst) -> clock
        self.channel_busy = defaultdict(float)
        self.nic_send_free = defaultdict(float)  # worker -> clock
        self.nic_recv_free = defaultdict(float)
        self.compute_time = defaultdict(float)  # rank -> seconds
        self.bwd_start = {}  # (rank, s, b) -> backward start
        self.round_backwards = defaultdict(list)  # (s, round) -> [(st, en)]


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


def send(run: Run, src: int, dst: int, num_bytes: float,
         ready: float, slot: int) -> None:
    """Ship a boundary tensor from worker ``src`` to ``dst``; it arrives in
    ``core.dep[slot]``."""
    core = run.core
    if src == dst or num_bytes <= 0:
        core.dep[slot] = ready
        return
    link = (src, dst)
    duration = num_bytes / core.placement.link_bandwidth(src, dst)
    begin = max(ready, run.channel_free[link])
    nic = core.options.nic_contention
    if nic:
        begin = max(begin, run.nic_send_free[src], run.nic_recv_free[dst])
    if core.faults is not None:
        duration *= core.faults.bandwidth_factor(
            src, dst, begin, core.placement.link_level(src, dst))
    done = begin + duration
    if nic:
        run.nic_send_free[src] = done
        run.nic_recv_free[dst] = done
    run.channel_free[link] = done
    run.channel_busy[link] += duration
    core.dep[slot] = done


def commit_update(run: Run, rank: int, s: int, b: int, start: float) -> float:
    """Commit ``rank``'s UPDATE of minibatch ``b`` at stage ``s``; return
    its end.  The round's last member prices the stage's collective."""
    core = run.core
    rnd = b // core.round_div[s]
    round_slot = core.UD_OFF + s * core.B + rnd
    duration = core.sync_duration[s]
    members = (1 if core.update_simple[s]
               else core.round_expected[s * core.B + rnd])
    if members == 1 and not core.is_bsp:
        # Commits alone: the sync starts when this backward ends.
        done = max(start, core.sync_free[s]) + duration
        last_end = start
    else:
        backwards = run.round_backwards[(s, rnd)]
        backwards.append((run.bwd_start.get((rank, s, b), start), start))
        if len(backwards) < members:
            core.worker_free[rank] = start
            return start
        starts = [st for st, _ in backwards]
        last_end = max(en for _, en in backwards)
        if core.buckets is not None:
            # Each bucket fires once every member's backward has produced
            # its last gradient and the stage's sync channel is free.
            t = core.sync_free[s]
            for seconds, frac in core.buckets[s]:
                t = max(t, max(st + frac * (en - st)
                               for st, en in backwards)) + seconds
            done = max(t, last_end) + core.sync_deferred[s]
        elif core.is_bsp:
            sync_start = max(max(starts), core.sync_free[s])
            done = (max(last_end, sync_start + core.sync_stream[s])
                    + core.sync_deferred[s])
        else:
            done = max(last_end, core.sync_free[s]) + duration
    core.sync_free[s] = done
    core.sync_busy[s] += duration
    if duration > 0:
        core.sync_exposed[s] += done - last_end
    core.dep[round_slot] = done
    if core.is_bsp:
        # Blocking: every replica of the stage resumes after the commit.
        for r in core.stage_ranks[s]:
            core.worker_free[r] = max(core.worker_free[r], done)
        return done
    core.worker_free[rank] = start  # async commit; the worker moves on
    return start if duration == 0 else done


def execute(run: Run, rank: int, kind: int, s: int, b: int,
            start: float) -> None:
    """Commit op ``(kind, s, b)`` of ``rank`` at ``start``."""
    core = run.core
    if kind == UPD:
        end = commit_update(run, rank, s, b, start)
    else:
        per_stage = {FWD: core.fwd_time, BWD: core.bwd_time,
                     BWD_W: core.bwd_w_time}[kind]
        busy = per_stage[s] / core.speed[rank]
        if core.faults is None:
            end = start + busy
        else:
            end = core.faults.compute_end(core.workers[rank], start, busy)
            busy = end - start
        run.compute_time[rank] += busy
        core.worker_free[rank] = end
        worker = core.workers[rank]
        if kind == FWD:
            if s < core.last_stage:
                group = core.stage_workers_list[s + 1]
                send(run, worker, group[b % len(group)],
                     core.boundary_bytes[s], end, (s + 1) * core.B + b)
            else:
                core.dep[core.fe_base[rank] + b] = end
        elif kind == BWD:
            run.bwd_start[(rank, s, b)] = start
            if s > 0:
                group = core.stage_workers_list[s - 1]
                send(run, worker, group[b % len(group)],
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
    run = Run(core)
    pointers = [0] * len(core.workers)
    total_ops = sum(len(kinds) for kinds in core.kinds)

    def head(rank):
        i = pointers[rank]
        return core.kinds[rank][i], core.stage_of[rank][i], core.mb_of[rank][i]

    halted = False
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
            halted = True
            break
        execute(run, best_rank, *head(best_rank), best_time)
        pointers[best_rank] += 1
        committed += 1
    return SimResult(
        total_time=max(core.log_end, default=0.0),
        num_minibatches=schedule.num_minibatches,
        num_workers=schedule.num_workers,
        compute_time_per_worker={
            core.workers[rank]: t for rank, t in run.compute_time.items()},
        channel_busy=dict(run.channel_busy),
        sync_busy=dict(core.sync_busy),
        minibatch_done=core.minibatch_done,
        halted_at=core.halt_time if halted else None,
        sync_exposed=dict(core.sync_exposed),
        timeline=(core.table, core.log_rank, core.log_start, core.log_end),
    )


#: The engine and its oracle by name, for tests parametrised over both.
ENGINES = {"event": simulate, "reference": simulate_reference}
