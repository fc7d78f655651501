"""Event-driven execution of a static schedule on a simulated cluster.

The executor walks every worker's op list in order, assigning each op the
earliest start compatible with (a) the worker being free, (b) its data
dependencies having *arrived* over the (contended, FIFO) point-to-point
channels, and (c) the weight-synchronization semantics of the strategy
being simulated:

- ``"pipedream"`` — updates are asynchronous: the stage's all_reduce (for
  replicated stages) occupies a per-stage sync resource but does not block
  the worker; a worker may run at most two rounds ahead of its stage's
  committed updates (a bounded-staleness buffer), which is what turns a
  sync bottleneck into the ``max(compute, comm)/m`` throughput of §3.1.
- ``"bsp"`` — wait-free backpropagation: the all_reduce overlaps the
  backward pass that produces it, and the *next forward* blocks until the
  round's update commits (data parallelism, §2.1).
- ``"gpipe"`` — pipeline flush: forwards of batch ``k+1`` wait for batch
  ``k``'s update; optional activation recomputation inflates backwards.

There is one engine and one loop, :meth:`_SimCore.run_event`, an
event-driven main loop that reads the schedule's
:class:`~repro.core.schedule.ScheduleTable` (int columns per worker rank,
never :class:`Op` objects): per-rank head-op cursors, wakeup lists keyed
on the exact resolution event each blocked op waits for
(activation/gradient arrival, forward completion, update commit), and a
min-heap of ready ops with lazy invalidation — O(ops · log workers)
commits.  Fault-free and faulted runs commit through the same inlined
code; an injected fault only changes how long an op or a transfer takes,
or where the timeline halts.  Its oracle, a full-rescan loop with its own
readiness, op commit, round commit and send that re-evaluates every
worker's head op on every commit (O(ops · workers)) over ``_SimCore``'s
precomputed durations and clocks, lives in
``tests/oracles/sim_reference.py``; the test suite asserts
bitwise-identical :class:`OpRecord` timelines and aggregates, faulted
and fault-free.

Interchangeable ranks: a fault-free BSP stage whose ranks run identical
rows at one speed commits in *block order* (each op of the row by ranks
``0..n-1`` in turn, at one instant), so :func:`simulate` runs row 0 as a
round of one, its sync priced over the whole group, and fans its commits
out to every rank.  A zero-length op would run a rank ahead of its
siblings: zero durations opt out, and a run whose clock absorbed a
positive one is re-run on every rank.  The oracle runs every rank.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import compress, repeat, starmap
from operator import and_, floordiv
from typing import Dict, List, Optional, Tuple

from repro.core.profile import ModelProfile
from repro.core.schedule import (
    BWD, FWD, OP_KINDS, UPD, Op, Schedule, ScheduleTable,
)
from repro.core.topology import Topology
from repro.sim.faults import FaultSchedule
from repro.sim.network import Placement, stage_terms
from repro.utils import obs

#: ``bytes.translate`` table of an op-kind column: 1 for UPDATE, else 0.
_UPDATE_MASK = bytes(code == UPD for code in range(256))


@dataclass(slots=True)
class SimOptions:
    """Execution semantics knobs (see module docstring)."""

    sync_mode: str = "pipedream"  # "pipedream" | "bsp" | "gpipe"
    recompute_activations: bool = False  # GPipe's memory/compute trade
    microbatches_per_batch: int = 1  # for gpipe round bookkeeping
    worker_speed: Optional[Dict[int, float]] = None  # straggler modelling
    #: Deterministic fault injection (crash / straggler / bandwidth
    #: degradation at simulated timestamps).  None or an empty schedule
    #: leaves every code path — and hence the timeline — bitwise
    #: identical to a fault-free run.
    faults: Optional[FaultSchedule] = None
    #: Gradient-fusion granularity.  ``None`` (default) keeps the legacy
    #: single-payload sync model and every pre-bucketing timeline bitwise
    #: intact.  A positive value fuses each replicated stage's streamable
    #: gradients into buckets of at most this many bytes
    #: (:mod:`repro.comm.bucketing`) and replaces the round's one UPDATE
    #: collective with per-bucket collectives, each firing as soon as
    #: every round member's backward has produced the bucket's last
    #: gradient — wait-free backprop at bucket granularity.  The
    #: BPTT-deferred payload stays one post-backward collective.
    bucket_bytes: Optional[float] = None

    def __post_init__(self):
        if self.sync_mode not in ("pipedream", "bsp", "gpipe"):
            raise ValueError(f"unknown sync mode {self.sync_mode!r}")
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise TypeError("faults must be a FaultSchedule or None")
        if self.bucket_bytes is not None and not self.bucket_bytes > 0:
            raise ValueError(f"bucket_bytes must be > 0, got {self.bucket_bytes}")
        if self.worker_speed is not None:
            for worker, speed in self.worker_speed.items():
                if not (math.isfinite(speed) and speed > 0):
                    raise ValueError(
                        f"worker {worker} speed must be finite and > 0, "
                        f"got {speed}")

    def speed_of(self, worker: int) -> float:
        if self.worker_speed is None:
            return 1.0
        return self.worker_speed.get(worker, 1.0)


@dataclass(frozen=True, slots=True)
class OpRecord:
    worker: int
    op: Op
    start: float
    end: float


@dataclass
class SimResult:
    """Timeline and summary statistics of one simulated run.

    The engine logs the timeline as commit-ordered ``(rank, start, end)``
    columns over the :class:`ScheduleTable` it ran (``timeline``);
    :attr:`raw_records` (``(worker, op, start, end)`` tuples) and
    :attr:`records` (:class:`OpRecord` objects) are built from them on
    first access.  Aggregate-only consumers (the sweeps and strategy
    drivers) never pay for an op or record object.
    """

    total_time: float
    num_minibatches: int
    num_workers: int
    compute_time_per_worker: Dict[int, float]
    channel_busy: Dict[Tuple[int, int], float]
    sync_busy: Dict[int, float]
    minibatch_done: Dict[int, float]
    #: Simulated instant a worker crash stopped the run, or None if it
    #: ran to completion.  When set, the timeline holds only the ops that
    #: started strictly before this time.
    halted_at: Optional[float] = None
    #: Per-stage seconds of weight synchronization on the critical path:
    #: how far each round's commit ran past its last backward (or, for
    #: single-member commits, past the committing worker's backward).
    #: ``sync_busy[s] - sync_exposed[s]`` is the share hidden under
    #: compute by wait-free overlap.  Stages that never pay sync are
    #: absent.
    sync_exposed: Dict[int, float] = field(default_factory=dict)
    timeline: Optional[Tuple[ScheduleTable, List[int], List[float], List[float]]] = field(
        default=None, repr=False)
    _raw: Optional[List[Tuple[int, Op, float, float]]] = field(
        default=None, init=False, repr=False, compare=False)
    _records: Optional[List[OpRecord]] = field(
        default=None, init=False, repr=False, compare=False)

    def _columns(self):
        """(worker, op, start, end) iterables in commit order: the k-th
        commit of a rank is that rank's k-th op."""
        if self.timeline is None:
            return (), (), (), ()
        table, ranks, starts, ends = self.timeline
        heads = [iter(table.ops(rank)) for rank in range(len(table.workers))]
        return (map(table.workers.__getitem__, ranks),
                map(next, map(heads.__getitem__, ranks)), starts, ends)

    @property
    def raw_records(self) -> List[Tuple[int, Op, float, float]]:
        if self._raw is None:
            self._raw = list(zip(*self._columns()))
        return self._raw

    @property
    def records(self) -> List[OpRecord]:
        if self._records is None:
            self._records = (list(map(OpRecord, *self._columns()))
                             if self._raw is None
                             else list(starmap(OpRecord, self._raw)))
        return self._records

    @property
    def throughput(self) -> float:
        """Minibatches per second over the whole run (startup included)."""
        return self.num_minibatches / self.total_time if self.total_time else math.inf

    @property
    def steady_state_throughput(self) -> float:
        """Minibatches/second over the second half (startup excluded).

        Completions are taken in minibatch order, so a run that finishes
        its minibatches out of order (GPipe's backward drains a batch's
        microbatches last to first) can give the second half no positive
        span; the whole-run :attr:`throughput` stands in then."""
        done = [self.minibatch_done[b] for b in sorted(self.minibatch_done)]
        if len(done) < 4:
            return self.throughput
        half = len(done) // 2
        span = done[-1] - done[half - 1]
        if span <= 0:
            return self.throughput
        return (len(done) - half) / span

    @property
    def average_utilization(self) -> float:
        """Mean fraction of time workers spend computing."""
        if self.total_time <= 0:
            return 1.0
        fractions = [
            busy / self.total_time for busy in self.compute_time_per_worker.values()
        ]
        return sum(fractions) / len(fractions)

    @property
    def communication_overhead(self) -> float:
        """Fraction of worker time lost to stalls (Figure 1's metric)."""
        return 1.0 - self.average_utilization


class _SimCore:
    """Simulation state, read by the oracle too, and the event loop.

    State is indexed by *rank* — a worker's row in the schedule table,
    whose order is the commit tie-break.  Every dependency an op can wait
    on is one slot of the flat list ``dep`` (``None`` until resolved, then
    the time it resolved): activation arrivals at ``stage * B +
    minibatch`` (``B`` = number of minibatches), gradient arrivals offset
    by ``AB_OFF``, round commits (``stage * B + round``) by ``UD_OFF``,
    and each last-stage rank's own forward ends at ``fe_base[rank] +
    minibatch``.  A slot's index is also its wakeup key.
    """

    __slots__ = (
        "schedule", "options", "stages", "last_stage", "B", "S",
        "fwd_time", "bwd_time", "bwd_w_time", "boundary_bytes",
        "sync_duration", "sync_stream", "sync_deferred",
        "placement", "table", "workers", "kinds", "stage_of", "mb_of",
        "stage_workers_list", "stage_ranks",
        "replicas", "round_div", "round_expected", "gated_forward",
        "pd_gated", "update_simple", "is_bsp", "is_gpipe",
        "worker_free", "speed", "channel_busy", "sync_free", "sync_busy",
        "dep", "fe_base", "minibatch_done", "compute_time",
        "log_rank", "log_start", "log_end",
        "nk", "AB_OFF", "UD_OFF",
        "faults", "halt_time", "halted",
        "buckets", "sync_exposed", "fanout",
    )

    def __init__(
        self,
        schedule: Schedule,
        profile: ModelProfile,
        topology: Topology,
        options: SimOptions,
        collapse: bool = False,
    ):
        if schedule.num_workers > topology.total_workers:
            raise ValueError(
                f"the schedule occupies {schedule.num_workers} workers but "
                f"the topology has {topology.total_workers}")
        # A fault must name a worker and a link level the topology has.
        for event in (options.faults.events if options.faults else ()):
            if event.worker >= topology.total_workers:
                raise ValueError(
                    f"{event.kind} fault at t={event.time} names worker "
                    f"{event.worker} but the topology has "
                    f"{topology.total_workers}")
            if event.level >= topology.num_levels:
                raise ValueError(
                    f"{event.kind} fault at t={event.time} names level "
                    f"{event.level} but the topology has "
                    f"{topology.num_levels}")
        for worker in options.worker_speed or ():
            if worker not in range(topology.total_workers):
                raise ValueError(
                    f"worker_speed names worker {worker} but the topology "
                    f"has {topology.total_workers}")
        self.schedule = schedule
        self.options = options
        stages = schedule.stages
        self.stages = stages
        self.last_stage = len(stages) - 1
        self.S = len(stages)
        self.B = max(1, schedule.num_minibatches)
        self.placement = Placement(topology)

        # Every compute and collective term comes from the one stage-term
        # table the evaluator reads too.  Two schedule semantics are the
        # engine's own.  The 2BP backward split (schedules with
        # ``backward_split``) moves the grad-weight half off the critical
        # grad-input path *before* the replay is added — the replayed
        # forward must precede grad-input (it rebuilds the tape), while
        # grad-weight work is pure local math that checkpointing never
        # touches; the halves conserve the unsplit duration exactly (w =
        # b/2, i = b - w).  ``recompute_activations`` (GPipe's trade)
        # replays every stage's forward, where a planned stage replays only
        # if it is flagged.  A tp stage's boundary all_reduces fold into
        # its per-op durations after those transforms (the replay rebuilds
        # from the already-gathered boundary stash): every forward ends
        # with the output-boundary collective (the last stage too, so
        # sharded compute is never free) and every backward runs the
        # input-boundary one.  The sync terms are per stage round; for
        # wait-free backprop only the stream payload overlaps the backward
        # pass — BPTT-accumulated kinds (LSTM, embedding) keep accumulating
        # until it ends, the reason DP fares poorly on the paper's
        # translation and language-modelling workloads.  With bucketing
        # the round commit walks the stream's buckets in firing order.
        terms = stage_terms(self.placement, profile, stages,
                            schedule.stage_workers, options.bucket_bytes)
        bwd_time = [x.backward for x in terms]
        if schedule.backward_split:
            bwd_w_time = [0.5 * b for b in bwd_time]
            bwd_time = [b - w for b, w in zip(bwd_time, bwd_w_time)]
        else:
            bwd_w_time = [0.0] * len(bwd_time)
        replay_all = options.recompute_activations
        fwd_time = [x.forward + x.tp_out for x in terms]
        bwd_time = [b + (x.forward if replay_all else x.replay) + x.tp_in
                    for x, b in zip(terms, bwd_time)]
        self.fwd_time = fwd_time
        self.bwd_time = bwd_time
        self.bwd_w_time = bwd_w_time

        self.boundary_bytes = [x.out_bytes for x in terms[:-1]]
        self.sync_stream = [x.stream for x in terms]
        self.sync_deferred = [x.deferred for x in terms]
        self.sync_duration = [x.stream + x.deferred for x in terms]
        self.buckets = (None if options.bucket_bytes is None
                        else [x.buckets for x in terms])

        # An empty schedule is normalized away so the empty case takes
        # the exact fault-free code paths — the bitwise no-op guarantee
        # is structural, not arithmetic.
        faults = options.faults
        if faults is not None and not faults:
            faults = None
        self.faults = faults
        self.halt_time = faults.halt_time if faults is not None else None
        self.halted = False

        # Commit-order tie-breaking follows the table's rank order.
        table = self.table = schedule.table
        speed = [options.speed_of(w) for w in table.workers]
        #: Ranks each simulated row stands for (module docstring); every
        #: UPDATE must be followed by the forward its round gates.
        self.fanout = 1
        if (collapse and options.sync_mode == "bsp" and self.S == 1
                and len(speed) >= 2 and faults is None
                and speed.count(speed[0]) == len(speed)
                and fwd_time[0] > 0 and bwd_time[0] > 0
                and (bwd_w_time[0] > 0 or not schedule.backward_split)
                and all(col.count(col[0]) == len(col) for col in table[1:])
                and all(k2 == FWD and b2 == b + 1 for k, b, k2, b2 in zip(
                    table.kinds[0], table.minibatches[0],
                    table.kinds[0][1:], table.minibatches[0][1:]) if k == UPD)):
            self.fanout = len(speed)
            table = ScheduleTable(*(col[:1] for col in table))
        self.workers = table.workers
        self.kinds = table.kinds
        self.stage_of = table.stages
        self.mb_of = table.minibatches
        self.stage_workers_list = [schedule.stage_workers[s] for s in range(self.S)]
        self.replicas = [stage.replicas for stage in stages]

        # Synchronization round of minibatch b at stage s is b // round_div[s]
        # (see round semantics below); precomputed per stage.
        if options.sync_mode == "bsp":
            self.round_div = [1] * self.S
        elif options.sync_mode == "gpipe":
            self.round_div = [max(1, options.microbatches_per_batch)] * self.S
        else:
            self.round_div = [stage.replicas for stage in stages]
        self.gated_forward = options.sync_mode in ("bsp", "gpipe")
        self.pd_gated = [options.sync_mode == "pipedream" and r > 1
                         for r in self.replicas]
        is_bsp = self.is_bsp = options.sync_mode == "bsp"
        is_gpipe = self.is_gpipe = options.sync_mode == "gpipe"
        #: Stages whose every UPDATE commits alone (straight 1F1B stages,
        #: GPipe); the others gather rounds of replica backwards.
        self.update_simple = [not is_bsp and (is_gpipe or r == 1)
                              for r in self.replicas]
        if is_bsp:
            rank_of = {w: r for r, w in enumerate(self.workers)}
            self.stage_ranks = [[rank_of[w] for w in ws if w in rank_of]
                                for ws in self.stage_workers_list]

        # Per-round membership comes from the ops the schedule actually
        # emits, not from an assumed round-robin minibatch→replica
        # assignment: a round-robin 1F1B schedule has one UPDATE per
        # minibatch in a round, but ``data_parallel_schedule`` runs every
        # minibatch on every replica.  Counting the schedule's own UPDATEs
        # gives every round its true membership for any schedule shape.
        # Only round-gathering stages read it.  The count runs at C level:
        # a row's UPDATE mask is one ``bytes`` translate, and each of its
        # stages' rounds one ``Counter`` pass over the masked minibatch
        # column, so Python touches one key per round, not one per op.
        rounds: Dict[int, Counter] = {}
        if not all(self.update_simple):
            for kinds, stage_col, mbs in zip(self.kinds, self.stage_of, self.mb_of):
                updates = bytes(kinds).translate(_UPDATE_MASK)
                here = set(stage_col)
                for s in here:
                    if self.update_simple[s]:
                        continue
                    picks = updates if len(here) == 1 else bytes(
                        map(and_, updates, map(s.__eq__, stage_col)))
                    rounds.setdefault(s, Counter()).update(map(
                        floordiv, compress(mbs, picks),
                        repeat(self.round_div[s])))
        self.round_expected = {}
        for s, counts in rounds.items():
            self.round_expected.update(
                zip(map((s * self.B).__add__, counts), counts.values()))

        n = len(self.workers)
        self.worker_free = [0.0] * n
        self.speed = speed[:n]
        self.sync_free = [0.0] * self.S
        self.sync_busy: Dict[int, float] = defaultdict(float)
        self.sync_exposed: Dict[int, float] = defaultdict(float)
        #: Per-rank compute seconds and per-(src, dst) transfer seconds,
        #: in first-commit order; :meth:`run_event` fills them when it
        #: ends (its own clocks are lists).
        self.compute_time: Dict[int, float] = {}
        self.channel_busy: Dict[Tuple[int, int], float] = {}

        # The flat dependency list (see the class docstring).  A rank's
        # last-stage backward reads *its own* forward's end and a BSP round
        # collects each member's own backward start: a shared (s, b) key
        # would collide when a replicated stage runs the same minibatch id
        # on every rank (data-parallel schedules).
        nk = self.nk = self.S * self.B
        self.AB_OFF = nk
        self.UD_OFF = 2 * nk
        # The ranks whose ops include the last stage's: its workers (a
        # stage's ops run on its ``stage_workers``, which the sends read).
        last_workers = set(self.stage_workers_list[self.last_stage])
        fe_ranks = [r for r, w in enumerate(self.workers) if w in last_workers]
        self.fe_base = [0] * n
        for slot, rank in enumerate(fe_ranks):
            self.fe_base[rank] = 3 * nk + slot * self.B
        self.dep: List[Optional[float]] = [None] * (3 * nk + len(fe_ranks) * self.B)
        self.minibatch_done: Dict[int, float] = {}
        # The timeline, as commit-ordered columns.
        self.log_rank: List[int] = []
        self.log_start: List[float] = []
        self.log_end: List[float] = []

    # ------------------------------------------------------------------
    # Round semantics
    # ------------------------------------------------------------------
    # BSP: every worker processes (its shard of) every minibatch, so each
    # minibatch is one collective round.  GPipe: one round per batch of
    # microbatches.  PipeDream: replicas round-robin over minibatches, so a
    # round is one sweep across the stage's replicas.  A round-gathering
    # stage's membership is read off the schedule itself (``round_expected``
    # in ``__init__``).

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _deadlock(self, pointers: List[int]) -> RuntimeError:
        stuck = {
            w: Op(OP_KINDS[self.kinds[r][i]], self.stage_of[r][i], self.mb_of[r][i])
            for r, (w, i) in enumerate(zip(self.workers, pointers))
            if i < len(self.kinds[r])
        }
        return RuntimeError(f"simulation deadlocked; blocked ops: {stuck}")

    def run_event(self) -> None:
        """The engine's one loop: a min-heap of ready head ops plus wakeup
        lists keyed on resolution events.

        Invariant: every rank with remaining ops is either in the heap
        (head op ready when enqueued) or parked on exactly one wakeup list
        (head op blocked on that event).  Heap entries can only go stale
        when a BSP round commit pushes ``worker_free`` forward for a whole
        stage group; that commit *dirty-marks* the ranks it bumped instead
        of re-validating every pop.  A queued entry's dependency
        component never changes after enqueue (dependencies resolve
        monotonically and their times are final), so the fresh ready time
        of a dirty entry is simply ``max(t, worker_free)`` — a clamp, not
        a full readiness recomputation — and clean entries are popped with
        no check at all, in every sync mode.  A ready op never becomes
        blocked and a ready time never decreases, so the heap minimum
        matches the oracle's full-rescan minimum, and (time, rank)
        ordering reproduces its first-wins tie-break exactly.

        Every commit runs inline on local state.  An UPDATE that commits
        alone (straight 1F1B, GPipe, a one-member round) prices its sync
        at once; a round-gathering one appends its backward to the round
        and the round's last member prices the collective.  Only BSP and
        bucketed rounds read a backward's start, so only their stages
        record it.  Point-to-point channels are numbered on first use: a
        *route* per (rank, stage, direction) holds, for each replica of
        the peer stage, the channel id (-1 when the peer is the same
        worker or the boundary carries no bytes) and the transfer seconds.
        Channel clocks and busy seconds, and per-rank compute seconds, are
        lists; ``channel_busy`` and ``compute_time`` are rebuilt from them
        when the loop ends, halted or not, in first-send and first-compute
        order.

        Faulted and fault-free runs commit through the same inlined code.
        With a fault schedule present, a compute op's end integrates its
        worker's straggler windows (:meth:`FaultSchedule.compute_end`), a
        transfer's duration is scaled by the bandwidth windows active when
        it begins (:meth:`FaultSchedule.bandwidth_factor`), and a crash
        stops the loop at the first chosen commit at or past the crash
        instant — commit times are non-decreasing, so the timeline is the
        prefix of ops that started before it.  Every fault branch is
        guarded on ``faults is not None``, so a fault-free run executes
        only the fault-free arithmetic.  Wakeup lists live in a list
        indexed like ``dep``.
        """
        kinds_of = self.kinds
        stages_of = self.stage_of
        mbs_of = self.mb_of
        nranks = len(kinds_of)
        pointers = [0] * nranks
        lengths = [len(k) for k in kinds_of]
        heap: List[Tuple[float, int]] = []

        B = self.B
        S = self.S
        last_stage = self.last_stage
        workers = self.workers
        worker_free = self.worker_free
        dep = self.dep
        waiters: List[Optional[List[int]]] = [None] * len(dep)
        fe_base = self.fe_base
        round_div = self.round_div
        gated_forward = self.gated_forward
        pd_gated = self.pd_gated
        update_simple = self.update_simple
        round_expected = self.round_expected
        is_bsp = self.is_bsp
        stage_ranks = self.stage_ranks if is_bsp else None
        buckets = self.buckets
        keep_start = [not simple and (is_bsp or buckets is not None)
                      for simple in update_simple]
        bwd_start: Dict[int, float] = {}  # by rank * nk + s * B + b
        round_backwards: Dict[int, list] = {}
        # Per-op-kind durations, indexed by the FWD / BWD / BWD_W codes.
        op_time = (self.fwd_time, self.bwd_time, self.bwd_w_time)
        speed = self.speed
        busy = [0.0] * nranks
        minibatch_done = self.minibatch_done
        nk = self.nk
        AB_OFF = self.AB_OFF
        UD_OFF = self.UD_OFF
        log_rank = self.log_rank.append
        log_start = self.log_start.append
        log_end = self.log_end.append
        # Per-rank staleness flags driven by BSP round commits; see the
        # docstring.
        dirty = [False] * nranks
        sync_duration = self.sync_duration
        sync_stream = self.sync_stream
        sync_deferred = self.sync_deferred
        sync_free = self.sync_free
        sync_busy = self.sync_busy
        sync_exposed = self.sync_exposed
        faults = self.faults
        halt = self.halt_time
        halted = False

        # Channels by id: worker pair, clock, busy seconds, link level
        # (read only under faults); ``first_sent`` lists ids in send order.
        channel_of: Dict[Tuple[int, int], int] = {}
        pairs: List[Tuple[int, int]] = []
        channel_free: List[float] = []
        channel_busy: List[float] = []
        level: List[int] = []
        first_sent: List[int] = []
        # Routes by rank * S + s: activations down, gradients up.
        routes = ([None] * (nranks * S), [None] * (nranks * S))
        placement = self.placement
        boundary_bytes = self.boundary_bytes
        stage_workers_list = self.stage_workers_list

        def route(rank: int, s: int, up: int) -> List[Tuple[int, float]]:
            """(channel id, transfer seconds) per replica of the stage that
            ``rank``'s stage ``s`` ships its boundary tensor to."""
            worker = workers[rank]
            nbytes = boundary_bytes[s - up]
            hops = []
            for dst in stage_workers_list[s - 1 if up else s + 1]:
                if worker == dst or nbytes <= 0:
                    hops.append((-1, 0.0))
                    continue
                channel = channel_of.get((worker, dst))
                if channel is None:
                    channel = channel_of[(worker, dst)] = len(pairs)
                    pairs.append((worker, dst))
                    channel_free.append(0.0)
                    channel_busy.append(0.0)
                    if faults is not None:
                        level.append(placement.link_level(worker, dst))
                hops.append(
                    (channel, nbytes / placement.link_bandwidth(worker, dst)))
            return hops

        def enqueue(rank: int) -> Optional[Tuple[float, int]]:
            """Readiness check for ``rank``'s head op: return a heap
            candidate ``(t, rank)`` when ready, else park the rank on the
            ``dep`` slot of its first unresolved dependency.  Re-evaluation
            on wakeup walks a blocked op's dependencies one at a time,
            which is correct because they only ever resolve."""
            idx = pointers[rank]
            t = worker_free[rank]
            kind = kinds_of[rank][idx]
            if kind > BWD:  # UPDATE and grad-weight ops wait on nothing
                return (t, rank)
            s = stages_of[rank][idx]
            b = mbs_of[rank][idx]
            sB = s * B
            while True:  # one pass; ``break`` parks the rank on ``key``
                if kind == FWD:
                    if s > 0:
                        key = sB + b
                        arrival = dep[key]
                        if arrival is None:
                            break
                        if arrival > t:
                            t = arrival
                    if gated_forward:
                        rnd = b // round_div[s]
                        if rnd > 0:
                            key = UD_OFF + sB + rnd - 1
                            arrival = dep[key]
                            if arrival is None:
                                break
                            if arrival > t:
                                t = arrival
                    return (t, rank)
                # BACKWARD: the last stage consumes its own forward, the
                # others the gradient from downstream.
                key = fe_base[rank] + b if s == last_stage else AB_OFF + sB + b
                arrival = dep[key]
                if arrival is None:
                    break
                if arrival > t:
                    t = arrival
                if pd_gated[s]:
                    rnd = b // round_div[s]
                    if rnd >= 2:
                        key = UD_OFF + sB + rnd - 2
                        arrival = dep[key]
                        if arrival is None:
                            break
                        if arrival > t:
                            t = arrival
                return (t, rank)
            bucket = waiters[key]
            if bucket is None:
                waiters[key] = [rank]
            else:
                bucket.append(rank)
            return None

        for rank in range(nranks):
            if lengths[rank]:
                cand = enqueue(rank)
                if cand is not None:
                    heappush(heap, cand)

        nxt: Optional[Tuple[float, int]] = None
        while True:
            if nxt is not None:
                # Fast lane: the previous commit's own next op was already
                # known to precede everything in the heap — skip push+pop.
                t, rank = nxt
                nxt = None
            else:
                if not heap:
                    if pointers != lengths:
                        raise self._deadlock(pointers)
                    break
                t, rank = heappop(heap)
                if is_bsp and dirty[rank]:
                    # A BSP round commit bumped this rank after its entry
                    # was queued.  Dependency times are final once resolved,
                    # so the fresh ready time is the clamp against the
                    # current worker_free — no readiness recomputation.
                    dirty[rank] = False
                    current = worker_free[rank]
                    if current > t:
                        heappush(heap, (current, rank))
                        continue
            if halt is not None and t >= halt:
                # A worker crashed: the globally earliest startable op is
                # already past the crash instant, so nothing else starts.
                halted = True
                break
            idx = pointers[rank]
            kinds = kinds_of[rank]
            kind = kinds[idx]
            s = stages_of[rank][idx]
            b = mbs_of[rank][idx]
            sB = s * B
            wake_key = -1
            if kind == UPD:
                # An UPDATE starts when its worker is free (t is its
                # worker_free) and leaves that clock alone: the commit is
                # asynchronous, except that a BSP round holds the whole
                # stage group until it commits.
                rd = round_div[s]
                sBr = sB + (b if rd == 1 else b // rd)
                if update_simple[s] or (not is_bsp and round_expected[sBr] == 1):
                    # Commits alone: sync starts when this backward ends.
                    wake_key = UD_OFF + sBr
                    duration = sync_duration[s]
                    sf = sync_free[s]
                    done = (t if t >= sf else sf) + duration
                    sync_free[s] = done
                    sync_busy[s] += duration
                    if duration > 0:
                        sync_exposed[s] += done - t
                    dep[wake_key] = done
                    end = t if duration == 0 else done
                else:
                    gathered = round_backwards.get(sBr)
                    if gathered is None:
                        gathered = round_backwards[sBr] = []
                    gathered.append(
                        (bwd_start.get(rank * nk + sB + b, t), t)
                        if keep_start[s] else t)
                    end = t
                    if len(gathered) == round_expected[sBr]:
                        # The round's last member prices the collective.
                        wake_key = UD_OFF + sBr
                        duration = sync_duration[s]
                        if not keep_start[s]:
                            last_end = max(gathered)
                            sf = sync_free[s]
                            done = (last_end if last_end >= sf else sf) + duration
                        elif buckets is not None:
                            # Bucketed wait-free backprop: each bucket's
                            # collective fires once every member's backward
                            # has produced its last gradient (the bucket's
                            # ready fraction of each member's own backward
                            # window) and the stage sync channel is free;
                            # buckets serialize in firing order.  The
                            # BPTT-deferred payload runs strictly last.
                            last_end = max([en for _, en in gathered])
                            sf = sync_free[s]
                            for dur, frac in buckets[s]:
                                ready = max(st + frac * (en - st)
                                            for st, en in gathered)
                                if ready > sf:
                                    sf = ready
                                sf += dur
                            done = ((sf if sf > last_end else last_end)
                                    + sync_deferred[s])
                        else:
                            # BSP wait-free backprop: streamable gradients
                            # overlap the backward pass; BPTT-deferred ones
                            # start when it ends.
                            last_end = max([en for _, en in gathered])
                            sync_start = max(max([st for st, _ in gathered]),
                                             sync_free[s])
                            done = max(last_end, sync_start + sync_stream[s]) \
                                + sync_deferred[s]
                        sync_free[s] = done
                        sync_busy[s] += duration
                        if duration > 0:
                            sync_exposed[s] += done - last_end
                        dep[wake_key] = done
                        if is_bsp:
                            # The stage group resumes after the commit; the
                            # others' queued entries go stale (the
                            # committing rank's next candidate is computed
                            # fresh below).
                            for r2 in stage_ranks[s]:
                                if worker_free[r2] < done:
                                    worker_free[r2] = done
                                    if r2 != rank:
                                        dirty[r2] = True
                            end = done
                        elif duration != 0:
                            end = done
            else:
                dur = op_time[kind][s] / speed[rank]
                if faults is None:
                    end = t + dur
                else:
                    end = faults.compute_end(workers[rank], t, dur)
                    dur = end - t
                busy[rank] += dur
                worker_free[rank] = end
                # The route this commit ships a boundary tensor on —
                # activations downstream, gradients upstream — or None.  A
                # 2BP grad-weight half (BWD_W) is local compute only: it
                # sends nothing and fires nothing.
                hops = None
                if kind == FWD:
                    if s < last_stage:
                        wake_key = sB + B + b
                        hops = routes[0][rank * S + s]
                        if hops is None:
                            hops = routes[0][rank * S + s] = route(rank, s, 0)
                    else:
                        # Only the last stage's own backward waits on
                        # forward completion.
                        wake_key = fe_base[rank] + b
                        dep[wake_key] = end
                elif kind == BWD:
                    if keep_start[s]:
                        bwd_start[rank * nk + sB + b] = t
                    if s > 0:
                        wake_key = AB_OFF + sB - B + b
                        hops = routes[1][rank * S + s]
                        if hops is None:
                            hops = routes[1][rank * S + s] = route(rank, s, 1)
                    else:
                        minibatch_done[b] = end
                if hops is not None:
                    channel, duration = hops[b % len(hops)]
                    if channel < 0:
                        dep[wake_key] = end
                    else:
                        cf = channel_free[channel]
                        begin = end if end >= cf else cf
                        if faults is not None:
                            duration *= faults.bandwidth_factor(
                                *pairs[channel], begin, level[channel])
                        cb = channel_busy[channel]
                        if not cb:
                            first_sent.append(channel)
                        channel_busy[channel] = cb + duration
                        channel_free[channel] = dep[wake_key] = begin + duration
            log_rank(rank)
            log_start(t)
            log_end(end)
            idx += 1
            pointers[rank] = idx
            if idx < lengths[rank]:
                # UPDATE and grad-weight heads are unconditionally ready at
                # worker_free.
                own = (worker_free[rank], rank) if kinds[idx] > BWD else enqueue(rank)
            else:
                own = None
            if wake_key >= 0:
                woken = waiters[wake_key]
                if woken is not None:
                    waiters[wake_key] = None
                    # Keep `own` as the minimum of this commit's fresh
                    # candidates; losers go straight to the heap.
                    for other in woken:
                        cand = enqueue(other)
                        if cand is not None:
                            if own is None or cand < own:
                                if own is not None:
                                    heappush(heap, own)
                                own = cand
                            else:
                                heappush(heap, cand)
            if own is not None:
                # `own` was computed after this commit, so it is fresh even
                # in BSP mode; taking it directly when it precedes the heap
                # minimum reproduces heappush+heappop ordering exactly
                # (ranks are unique, so ties are impossible).
                if not heap or own < heap[0]:
                    nxt = own
                else:
                    heappush(heap, own)

        self.halted = halted
        # A rank's first commit is a compute op when its row starts with
        # one; otherwise walk the log for each rank's first compute commit.
        ranks = self.log_rank
        if all(kinds[0] != UPD for kinds in kinds_of if kinds):
            first = dict.fromkeys(ranks)
        else:
            heads = [iter(kinds) for kinds in kinds_of]
            first = dict.fromkeys(
                rank for rank in ranks if next(heads[rank]) != UPD)
        self.compute_time = {rank: busy[rank] for rank in first}
        self.channel_busy = {pairs[c]: channel_busy[c] for c in first_sent}

    def result(self) -> SimResult:
        table, n = self.table, self.fanout
        ranks, starts, ends = self.log_rank, self.log_start, self.log_end
        busy = self.compute_time
        if n > 1:
            # Block order; a round's UPDATE ends at its start on every
            # rank but the last, which commits the round.
            ranks = list(range(n)) * len(starts)
            ends = [t for kind, start, end in zip(table.kinds[0], starts, ends)
                    for t in ((start,) * (n - 1) + (end,) if kind == UPD
                              else (end,) * n)]
            starts = [start for start in starts for _ in range(n)]
            busy = dict.fromkeys(range(n), busy[0]) if busy else {}
        return SimResult(
            total_time=max(self.log_end, default=0.0),
            num_minibatches=self.schedule.num_minibatches,
            num_workers=self.schedule.num_workers,
            compute_time_per_worker={
                table.workers[rank]: t for rank, t in busy.items()},
            channel_busy=self.channel_busy,
            sync_busy=dict(self.sync_busy),
            minibatch_done=self.minibatch_done,
            halted_at=self.halt_time if self.halted else None,
            sync_exposed=dict(self.sync_exposed),
            timeline=(table, ranks, starts, ends),
        )


def _run(schedule: Schedule, profile: ModelProfile, topology: Topology,
         options: SimOptions, collapse: bool) -> _SimCore:
    with obs.span("sim.init"):
        core = _SimCore(schedule, profile, topology, options, collapse)
    with obs.span("sim.loop") as span:
        core.run_event()
        if span is not None:
            span.attrs.update(ops=len(core.log_rank), ranks=len(core.kinds))
    return core


def simulate(
    schedule: Schedule,
    profile: ModelProfile,
    topology: Topology,
    options: Optional[SimOptions] = None,
) -> SimResult:
    """Execute ``schedule`` with the cluster's cost model; see module doc.

    Records the :mod:`repro.utils.obs` spans ``simulate`` around
    ``sim.init``, ``sim.loop`` (attrs ``ops``, ``ranks``) and
    ``sim.result``; a collapsed BSP run that is re-run on every rank
    records a second init and loop."""
    options = options or SimOptions()
    with obs.span("simulate"):
        core = _run(schedule, profile, topology, options, collapse=True)
        if core.fanout > 1 and any(start == end for kind, start, end in zip(
                core.kinds[0], core.log_start, core.log_end) if kind != UPD):
            core = _run(schedule, profile, topology, options, False)  # absorbed
        with obs.span("sim.result"):
            return core.result()
