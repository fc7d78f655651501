"""PipeDream's partitioning optimizer (§3.1).

The optimizer consumes a :class:`~repro.core.profile.ModelProfile` and a
hierarchical :class:`~repro.core.topology.Topology` and solves the paper's
dynamic program level by level:

    T^k(i→j, m)  — time of a single stage spanning layers i..j replicated
                   over m level-(k-1) components, accounting for the
                   data-parallel all_reduce of the stage's weights, with the
                   stage internally executed as an optimal level-(k-1)
                   sub-pipeline;

    A^k(i→j, m)  — time of the slowest stage of the optimal pipeline over
                   layers i..j using m level-(k-1) components, split into an
                   optimal sub-pipeline plus one trailing replicated stage.

Back-pointers are kept at every level so the final nested plan can be
reconstructed and flattened into concrete stages with worker counts, from
which the 1F1B-RR schedule and NOAM follow directly.

A brute-force reference (``tests/oracles/partition_brute_force.py``)
enumerates all contiguous partitions with all replication assignments for
small instances and certifies optimality of the DP in the test suite.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profile import ModelProfile
# The range-table cache fronts are re-exported here.
from repro.core.ranges import clear_eval_tables, eval_tables_stats, range_table
from repro.core.spec import PlanSpec
from repro.core.topology import Topology, TopologyLevel
from repro.utils import obs
from repro.utils.lru import LRUCache


@dataclass(frozen=True)
class Stage:
    """A contiguous slice of layers assigned to ``replicas`` workers.

    ``start`` is inclusive, ``stop`` exclusive, matching Python slices.
    ``recompute`` marks a stage that checkpoints: it stashes only its
    input-boundary activations per in-flight minibatch and rebuilds the
    interior during backward, trading memory for one extra forward pass
    (the planner sets this per stage under ``recompute="auto"``).
    ``tp_degree`` is the intra-layer tensor-parallel degree: each of the
    ``replicas`` logical replicas is realized by ``tp_degree`` consecutive
    physical workers holding a shard of the stage's shardable layers (see
    :mod:`repro.core.sharding`), so the stage occupies
    ``replicas * tp_degree`` workers in total.
    """

    start: int
    stop: int
    replicas: int
    recompute: bool = False
    tp_degree: int = 1

    def __post_init__(self):
        if self.stop <= self.start:
            raise ValueError("stage must contain at least one layer")
        if self.replicas < 1:
            raise ValueError("stage needs at least one replica")
        if self.tp_degree < 1:
            raise ValueError("stage needs a tensor-parallel degree >= 1")

    @property
    def num_layers(self) -> int:
        return self.stop - self.start

    @property
    def workers(self) -> int:
        """Physical workers the stage occupies (replicas x tp shards)."""
        return self.replicas * self.tp_degree


@dataclass
class PartitionResult:
    """Output of the optimizer: the balanced pipeline of §3.1."""

    stages: List[Stage]
    slowest_stage_time: float  # effective seconds per minibatch
    num_workers: int
    profile: ModelProfile
    topology: Topology
    solve_seconds: float = 0.0
    #: Simulated per-stage footprint (``pipeline_memory_footprint`` under
    #: 1F1B warmup depths) of the chosen plan, and the solver's limit echo.
    memory_bytes: Tuple[int, ...] = ()
    memory_limit_bytes: Optional[float] = None

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def is_data_parallel(self) -> bool:
        """Vanilla DP is the degenerate single-replicated-stage pipeline."""
        return len(self.stages) == 1 and self.stages[0].replicas == self.num_workers

    @property
    def config_string(self) -> str:
        """Paper-style name of the plan (:func:`plan_config`)."""
        return plan_config(self.stages)

    @property
    def noam(self) -> int:
        """NUM_OPT_ACTIVE_MINIBATCHES = ceil(workers / input-stage workers)."""
        return max(1, math.ceil(
            self.num_workers
            / (self.stages[0].replicas * self.stages[0].tp_degree)
        ))

    @property
    def predicted_throughput(self) -> float:
        """Steady-state minibatches per second."""
        return 1.0 / self.slowest_stage_time

    def predicted_epoch_time(self, num_minibatches: int) -> float:
        """Steady-state epoch time estimate (startup transient ignored)."""
        return num_minibatches * self.slowest_stage_time

    def stage_boundaries(self) -> List[Tuple[int, int]]:
        return [(stage.start, stage.stop) for stage in self.stages]

    def __repr__(self) -> str:
        return (
            f"PartitionResult(config={self.config_string!r}, "
            f"stages={len(self.stages)}, workers={self.num_workers}, "
            f"bottleneck={self.slowest_stage_time * 1e3:.2f}ms/minibatch)"
        )


def plan_config(stages: Sequence[Stage]) -> str:
    """Paper-style name of a stage list: "15-1", "straight", "16" (one
    replicated stage, pure DP), etc.

    Tensor-parallel stages render as ``{replicas}x{tp_degree}`` (e.g.
    "4x2-1"); plans without tp keep the historical byte-exact strings.
    """
    if len(stages) > 1 and all(
            s.replicas == 1 and s.tp_degree == 1 for s in stages):
        return "straight"
    return "-".join(
        str(s.replicas) if s.tp_degree == 1 else f"{s.replicas}x{s.tp_degree}"
        for s in stages
    )


def canonical_spec_key(
    spec: PlanSpec, profile: ModelProfile, num_workers: int
) -> tuple:
    """``spec.key()`` with every memory cap that cannot bind keyed as one.

    A cap at or above :func:`repro.sim.memory.memory_ceiling` passes every
    comparison a solve over ``num_workers`` workers makes, so the DP
    tables, the plan and its price do not depend on its value: all such
    caps are keyed ``inf``.  That stays distinct from "uncapped" (the
    refined DP runs only under a cap), and a cap below the ceiling keeps
    its own value.  The solver still compares against the caller's cap;
    only the keys — the optimizer's shared-table namespace and the planner
    service's plan-cache key, which both come from here — are shared.
    """
    # Imported at call time: repro.sim.memory imports this module.
    from repro.sim.memory import memory_ceiling

    cap = spec.memory_limit_bytes
    if cap is None or cap < memory_ceiling(profile, num_workers):
        return spec.key()
    return tuple([
        (name, math.inf if name == "memory_limit_bytes" else value)
        for name, value in spec.key()
    ])


class SolverContext:
    """Warm-start state shared by :class:`PipeDreamOptimizer` instances.

    The DP's expensive intermediates are all reusable across queries over
    the *same profile* that differ only in worker count, memory cap, or
    solver options — the exact query mix a long-lived planner service (and
    an offline sweep) answers:

    - ``level_tables``: the hierarchical DP's per-level ``(A, ptr)``
      arrays.  Keys embed the full solver namespace (memory limit,
      refine/replication flags, compute scale) plus the level-signature
      prefix, so worker-count subsets of one cluster share every inner
      level they have in common and no entry can ever be reused under a
      different feasibility mask.
      A topology's last level holds row 0 only and is keyed with a
      trailing ``"row0"``: a full table (the same level solved as an inner
      one) may answer a row-0 lookup, never the reverse.
    - ``bound_matrices``: the phase-1 per-span memory bounds.  The matrix
      itself never depends on the limit (only the ``<= limit`` comparison
      does), so *every* memory cap shares one matrix per mode.
    - ``comm_tables``: the refined suffix DP's placement-exact ring
      tables, one per (topology signature, tp degree) — shared across
      memory caps, option mixes and repeated queries.

    Every cache is value-transparent: a warm-started solve returns results
    bitwise identical to a cold one (asserted across all axes by
    ``tests/test_solver_context.py``).  Solves that share a context run
    concurrently and unserialized: an entry is a pure function of its key,
    is stored whole and is never written to afterwards, so racing solves
    store equal values and a reader sees a complete entry or none
    (``tests/test_serve.py::TestConcurrencyStress``).  ``lock`` guards the
    counters only.
    """

    def __init__(self, profile: ModelProfile):
        self.profile = profile
        self.lock = threading.RLock()
        # Bounded so a server answering arbitrary (cap, options) mixes for
        # days holds a working set, not a transcript.  Level tables are the
        # big ones (O(n^2) arrays per level).
        self.level_tables = LRUCache(capacity=256, name="level_tables")
        self.bound_matrices: Dict[tuple, np.ndarray] = {}
        self.comm_tables = LRUCache(capacity=64, name="comm_tables")
        self._counters = {
            "level_hits": 0, "level_misses": 0,
            "bound_hits": 0, "bound_misses": 0,
            "comm_hits": 0, "comm_misses": 0,
            "solves": 0,
        }

    def matches(self, profile: ModelProfile) -> bool:
        """True when ``profile`` can safely share this context's caches."""
        if profile is self.profile:
            return True
        return profile.digest() == self.profile.digest()

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self.lock:
            self._counters[counter] += amount

    def stats(self) -> Dict[str, int]:
        """Counter snapshot plus current table occupancy."""
        with self.lock:
            out = dict(self._counters)
        out.update(
            level_entries=len(self.level_tables),
            bound_entries=len(self.bound_matrices),
            comm_entries=len(self.comm_tables),
        )
        return out


class SolverContextPool:
    """A bounded registry of :class:`SolverContext` keyed by profile digest.

    The planner service and the sweep harness both face an open-ended
    stream of profiles; the pool gives each distinct profile one shared
    context and bounds the total (LRU eviction) so a long-lived server
    cannot accumulate DP tables without limit.
    """

    def __init__(self, capacity: int = 16):
        self._cache = LRUCache(capacity, name="solver_contexts")

    def get(self, profile: ModelProfile) -> SolverContext:
        """The (possibly new) shared context for ``profile``."""
        return self._cache.get_or_create(
            profile.digest(), lambda: SolverContext(profile)
        )

    def __len__(self) -> int:
        return len(self._cache)

    def stats(self) -> Dict[str, object]:
        """Pool-level LRU stats plus per-context counter snapshots, keyed
        by the first 12 hex digits of the profile digest (two precisions of
        one model, or two inline profiles of one name, are two contexts);
        each snapshot names its ``model``."""
        return {
            "pool": self._cache.stats(),
            "contexts": {
                ctx.profile.digest()[:12]: {
                    "model": ctx.profile.model_name, **ctx.stats()}
                for ctx in self._cache.values()
            },
        }


class PipeDreamOptimizer:
    """Hierarchical dynamic-programming partitioner.

    Args:
        profile: per-layer (T_l, a_l, w_l) measurements.
        topology: hierarchical cluster description; the optimizer solves one
            DP per level, innermost first.
        context: optional :class:`SolverContext` built over the same
            profile.  When given, every memoized intermediate (level
            tables, bound matrices, refined comm tables) is read from and
            written to the shared context instead of per-instance dicts,
            so a fresh optimizer answering a query that differs from
            earlier ones only in worker count or memory cap is
            warm-started.  Results are bitwise identical to a cold solve.

    The remaining keywords are the fields of
    :class:`~repro.core.spec.PlanSpec` (which validates and normalises
    them; ``self.spec`` is the result).  What each one switches here:

    - ``memory_limit_bytes``: all feasibility checks price stages through
      the one shared §3.3 kernel
      (:func:`repro.sim.memory.stage_memory_cost`); they only differ in
      the depth/replica arguments they plug in.  The per-level DPs use a
      cheap per-span *bound* (see :meth:`_bound_matrix`), as in §3.1's
      constraint list; with ``memory_refine`` :meth:`solve` then re-checks
      every candidate plan against the simulator's *true* per-stage
      footprint (:func:`repro.sim.memory.pipeline_memory_footprint` under
      1F1B ``warmup_count`` depths) and runs a second, depth-aware DP pass
      whose mask evaluates the kernel at the exact warmup depth.  The
      bound is a relaxation of the exact mask, which in turn equals the
      footprint, so phase-1 pruning can never discard a plan the simulator
      admits (bound-admitted ⊇ refined-admitted ⊇ footprint-feasible).
      ``memory_refine=False`` is the bound-only mode tests use as the
      level-DP isolating reference.
    - ``bucket_bytes``: both the DP interior and the final candidate
      scoring charge the per-collective setup latency α of the topology's
      levels once per gradient bucket (:mod:`repro.comm.bucketing`) —
      which is what makes fusion granularity a real planning knob on
      latency-bearing clusters.  With every level at the default
      ``allreduce_latency=0`` the DP tables are bitwise unchanged for any
      value.
    - ``recompute="auto"``: the refined suffix DP decides *per stage*: a
      stage keeps stash-everything whenever that fits the memory limit
      (so generous limits are bitwise no-ops), and switches to
      checkpointing — boundary activations stashed, interior rebuilt in
      backward, one extra forward added to the stage's compute — only
      when stash-everything busts the cap and checkpointing fits.
    - ``tp_degrees``: the refined suffix DP enumerates
      ``(replicas, tp_degree)`` cells (``tp_degree`` must divide the
      stage's worker count) and the level DP shards level-1 stages: a tp
      group of ``t`` consecutive workers holds a shard of every shardable
      layer (:mod:`repro.core.sharding`), dividing the shardable
      compute/weight/activation share by ``t`` while pricing the
      intra-stage boundary-activation collectives (allgather forward,
      reduce-scatter backward ≡ one ring all_reduce each) with the same
      collective model the data-parallel sync uses.
    """

    def __init__(
        self,
        profile: ModelProfile,
        topology: Topology,
        allow_replication: bool = True,
        memory_limit_bytes: Optional[float] = None,
        memory_refine: bool = True,
        context: Optional[SolverContext] = None,
        bucket_bytes: Optional[float] = None,
        recompute: Optional[str] = None,
        tp_degrees: Optional[Sequence[int]] = None,
    ):
        self.profile = profile
        self.topology = topology
        #: The six solver options as one validated value; the four
        #: attributes below mirror it for the DP loops to read.
        self.spec = spec = PlanSpec(
            memory_limit_bytes, allow_replication, memory_refine,
            bucket_bytes, recompute, tp_degrees)
        self.memory_limit_bytes = spec.memory_limit_bytes
        self.allow_replication = spec.allow_replication
        self.memory_refine = spec.memory_refine
        self.bucket_bytes = spec.bucket_bytes
        # The spec the DP tables actually depend on: without a cap
        # stash-everything always fits, so recompute="auto" is the default
        # solver — same tables, same shared-context entries.
        effective = (spec if spec.memory_limit_bytes is not None
                     else replace(spec, recompute=None))
        self._recompute_auto = effective.recompute == "auto"
        self._tp_options = effective.tp_degrees or (1,)
        self._bucket_matrix_cache = None
        if context is not None and not context.matches(profile):
            raise ValueError(
                "SolverContext was built for a different profile "
                f"({context.profile.model_name!r}, digest "
                f"{context.profile.digest()[:12]}...); warm-started tables "
                "would be wrong for this one"
            )
        self.context = context
        # The one shared memory formula (imported at call time because
        # repro.sim.memory imports Stage from this module).
        from repro.sim.memory import stage_memory_cost

        self._stage_memory_cost = stage_memory_cost
        self._bound_cache: Optional[np.ndarray] = None
        self._tables: Optional[SimpleNamespace] = None
        #: Namespace prefix of every shared-cache key: everything that
        #: changes DP table *values*.  Entries written under one namespace
        #: can never be read under another, which is what makes sharing a
        #: context across memory caps / option mixes safe (the memory limit
        #: is baked into the level tables' feasibility masks — except a
        #: cap no mask can feel, see :func:`canonical_spec_key`).
        self._cache_ns = (topology.compute_scale,) + canonical_spec_key(
            effective, profile, topology.total_workers)
        #: The memo stores :meth:`_memo` reads and writes: the shared
        #: context's tables, or this optimizer's own dicts.  ``level``
        #: holds the level DP's per-level tables — keyed by the namespace
        #: plus the (count, bandwidth, allreduce_bandwidth, latency) tuple
        #: of every level up to the table's own, so worker-count subsets
        #: of one cluster share their inner levels; ``bound`` the phase-1
        #: matrices; ``comm`` the refined DP's placement tables.
        self._stores = (
            {"level": context.level_tables, "bound": context.bound_matrices,
             "comm": context.comm_tables}
            if context is not None else {"level": {}, "bound": {}, "comm": {}}
        )
        self._n = len(profile)
        #: Range sums of the reference-device profile: both DPs read them
        #: (:meth:`_span_tables` divides the compute columns by the
        #: topology's ``compute_scale``).
        self._table = range_table(profile)

    def _memo(self, kind: str, key: tuple, build, fallback=None):
        """The ``kind`` store's entry for ``key`` (or for ``fallback``, a
        second key allowed to answer), else ``build()`` stored under
        ``key``.  With a shared context the lookup bumps its
        ``{kind}_hits`` / ``{kind}_misses`` counter."""
        store = self._stores[kind]
        value = store.get(key)
        if value is None and fallback is not None:
            value = store.get(fallback)
        outcome = "hits" if value is not None else "misses"
        if value is None:
            value = store[key] = build()
        if self.context is not None:
            self.context._bump(f"{kind}_{outcome}")
        return value

    def _bucket_matrix(self):
        """Streamable collectives per round of every span, packed like the
        :meth:`_span_tables` planes.

        With fusion off the stage all_reduces its streamable gradients as
        one payload (the scalar 1); with ``bucket_bytes`` set it launches
        one collective per gradient bucket, each paying the level setup
        latency α again (the DP only reads this under ``α > 0``, so the
        α=0 default stays bitwise untouched).
        """
        if self.bucket_bytes is None:
            return 1.0
        if self._bucket_matrix_cache is None:
            from repro.comm.bucketing import stream_bucket_count_table

            self._bucket_matrix_cache = np.asarray(
                stream_bucket_count_table(self.profile, self.bucket_bytes),
                dtype=np.float64,
            )[self._span_tables().tri]
        return self._bucket_matrix_cache

    def _bound_matrix(self) -> List[List[float]]:
        """(n, n) per-span memory lower/upper bounds for phase-1 pruning
        (``inf`` below the diagonal).

        Every entry is a :func:`repro.sim.memory.stage_memory_cost` value —
        the bound differs from the refined mask and the simulated footprint
        only in the depth/replica arguments, never in the formula.

        With ``memory_refine`` the entry for span ``i..j`` is an *optimistic
        lower bound* on the kernel cost of any flattened stage a completed
        plan can carve out of the span: the span may be split internally by
        inner DP levels, so the bound is per layer — the max over layers of
        the single-layer cost at the minimum conceivable depth.  A stage
        ending before the last layer always has a downstream stage, hence
        warmup depth ``ceil(m/m') >= 2``; only a span reaching layer ``n-1``
        can end in a depth-1 stage.  Passing ``replicas == depth`` prices
        the deferred (BPTT) weight share at its floor of one stashed
        version.  Because the refined mask evaluates the same kernel on the
        whole span at the true depth, bound-admitted ⊇ refined-admitted.

        Without ``memory_refine`` (bound-only solves) the entry is instead a
        *conservative upper bound*: the whole span at depth ``W`` with no
        replication relief — at most ``W`` versions of everything can ever
        be in flight — so a bound-only solve never returns a plan whose
        simulated footprint overflows the limit.
        """
        if self._bound_cache is None:
            # The matrix depends on the profile's bytes and (in bound-only
            # mode) the instance topology's worker count — never on the
            # limit itself, which only enters through the <= comparison.
            # A shared context therefore serves every cap from one matrix.
            if self.memory_refine:
                # Recompute-auto lowers the per-layer floor (a
                # checkpointing stage may stash as little as one full set),
                # and the tp floor (shardable terms divided by the max
                # degree) lowers it further, so both join the key — the tp
                # component only when the axis is live, keeping tp-free
                # keys byte-identical.
                key = (("refined", "recompute") if self._recompute_auto
                       else ("refined",))
                if self._tp_options[-1] > 1:
                    key = key + ("tp", self._tp_options[-1])
            else:
                key = ("bound", max(1, self.topology.total_workers))
            self._bound_cache = self._memo("bound", key, self._build_bound)
        return self._bound_cache

    def _build_bound(self) -> np.ndarray:
        """The :meth:`_bound_matrix` values: one kernel call per depth."""
        tb = self._span_tables()
        kernel = self._stage_memory_cost
        n = self._n
        if not self.memory_refine:
            W = max(1, self.topology.total_workers)
            bound = np.full((n, n), math.inf)
            bound[tb.tri] = kernel(tb.W, tb.D, tb.A, W, 1)
            return bound
        # Per-layer floors (the planes' single-layer entries).  With recompute
        # available the optimistic floor is the checkpointing cost at a
        # zero-byte boundary (a stage starting at layer 0 stashes no
        # boundary activations): eager*depth + one deferred version + one
        # full set.  The kernel clamps recompute-on at or below
        # stash-everything, so this floor relaxes the default one and the
        # superset invariant extends to recompute masks.  With tp enabled,
        # a shardable layer's floor divides its weight/activation bytes by
        # the *largest* degree on the menu (a non-shardable layer's
        # shardable share is 0, which the kernel leaves untouched) — the
        # kernel is non-increasing in tp_degree, so the superset invariant
        # extends to tp assignments.
        layer = {name: getattr(tb, name)[tb.diag]
                 for name in ("W", "D", "A", "SW", "SA")}

        def floor(depth: int) -> np.ndarray:
            return kernel(
                layer["W"], layer["D"], layer["A"], depth, depth,
                recompute=self._recompute_auto, boundary_activation_bytes=0,
                tp_degree=self._tp_options[-1],
                shardable_weight_bytes=layer["SW"],
                shardable_activation_bytes=layer["SA"],
            )

        # A stage ending before the last layer has a downstream stage
        # (depth >= 2): the span's bound is the running max of the depth-2
        # floors.  A span reaching layer n-1 may place *any* of its layers
        # in the final depth-1 stage, so that column is the suffix max of
        # the depth-1 floors.
        valid = np.arange(n)[:, None] <= np.arange(n)[None, :]
        bound = np.where(
            valid,
            np.maximum.accumulate(np.where(valid, floor(2), 0.0), axis=1),
            math.inf,
        )
        bound[:, -1] = np.maximum.accumulate(floor(1)[::-1])[::-1]
        return bound

    # ------------------------------------------------------------------
    # The hierarchical DP
    # ------------------------------------------------------------------
    def solve(self, num_workers: Optional[int] = None) -> PartitionResult:
        """Compute the optimal pipeline for ``num_workers`` (default: all).

        Two decompositions are solved and the better plan (under the
        topology-aware evaluator) is returned:

        - the paper's *hierarchical* DP, which nests replication along the
          machine hierarchy (and therefore only expresses replica counts
          that factor along it), and
        - a *flat* DP over all workers at the slowest link bandwidth, which
          can express configurations like VGG-16's "15-1" that do not
          factor hierarchically (the form the paper's Table 1 reports).

        When a memory limit is set and ``memory_refine`` is on, feasibility
        is two-phase and every phase prices memory through the one shared
        kernel (:func:`repro.sim.memory.stage_memory_cost`): the per-level
        DPs pre-filter with the optimistic per-span bound of
        :meth:`_bound_matrix` (a relaxation — it never rejects a span a
        footprint-feasible plan needs), a *refined* flat DP evaluates the
        kernel at the exact 1F1B depth (versions =
        ``ceil(suffix/replicas)``, the exact ``warmup_count``), and every
        candidate is finally re-checked against the simulator's true
        per-stage footprint before scoring.  Plans the old worst-case
        bound over-rejected are kept reachable; plans the bound admits but
        the footprint rejects are discarded.
        """
        start_time = time.perf_counter()
        if self.context is not None:
            self.context._bump("solves")
        topology = self.topology
        if num_workers is not None and num_workers != topology.total_workers:
            topology = topology.subset(num_workers)
        with obs.span("solve", model=self.profile.model_name,
                      workers=topology.total_workers):
            cost, stages, memory = self._solve_phases(topology)
        return PartitionResult(
            stages=stages, slowest_stage_time=cost,
            num_workers=topology.total_workers, profile=self.profile,
            topology=topology, solve_seconds=time.perf_counter() - start_time,
            memory_bytes=tuple(memory),
            memory_limit_bytes=self.memory_limit_bytes,
        )

    def _solve_phases(self, topology: Topology):
        """:meth:`solve`'s phases, one :mod:`repro.utils.obs` span each:
        ``levels`` per decomposition, ``refined`` (``refined.rings``,
        ``refined.planes`` and ``refined.rows`` inside), ``footprint`` and
        ``score``.  Returns the winner's ``(cost, stages, footprint)``."""
        # Phase 1: the bound-filtered level DPs.  A binding limit can rule
        # out one decomposition (the hierarchy masks whole spans) while the
        # other still has feasible plans, and under a tight limit both may
        # find nothing where the refined pass still can — only fail when
        # *every* candidate source comes up empty.
        candidates = []
        for decomposition in self._decompositions(topology):
            with obs.span("levels", levels=decomposition.num_levels):
                candidates.append(self._solve_for(decomposition))
        candidates = [stages for stages in candidates if stages is not None]
        footprints: Dict[int, List[int]] = {}  # by id(stages)
        if self.memory_refine and self.memory_limit_bytes is not None:
            # Phase 2: depth-aware placement-exact DP (exact warmup_count
            # versions, evaluator-model sync and boundary costs).
            with obs.span("refined"):
                refined = self._solve_refined(topology)
            if refined is not None:
                candidates.append(refined)
            # Ground truth: keep only plans whose simulated footprint fits.
            limit = self.memory_limit_bytes
            with obs.span("footprint"):
                footprints = {id(c): self._true_footprint(c) for c in candidates}
            candidates = [
                c for c in candidates if max(footprints[id(c)]) <= limit]
        if not candidates:
            # Name the constraint that is actually binding.
            n, W = self._n, topology.total_workers
            if not self.allow_replication and n * self._tp_options[-1] < W:
                why = (f"allow_replication=False cannot occupy {W} workers "
                       f"with {n} layers")
            elif self.memory_limit_bytes is not None:
                why = (f"no plan fits memory_limit_bytes="
                       f"{self.memory_limit_bytes:g}")
            else:
                why = ("no memory limit is set, so every plan has a "
                       "non-finite cost (check the topology's bandwidths)")
            raise RuntimeError(f"no feasible partition found: {why}")
        # Note: the evaluator applies the topology's compute scale itself,
        # so the raw (reference-device) profile is passed here.
        with obs.span("score"):
            scored = [(evaluate_partition_on_topology(
                self.profile, stages, topology, bucket_bytes=self.bucket_bytes,
            ), stages) for stages in candidates]
        best_cost = min(cost for cost, _ in scored)
        # Within the solver's tolerance (the cost model has error bars of a
        # few percent), prefer the simplest plan — fewer stages, and vanilla
        # DP over a near-tied pipeline.  This is what makes ResNet-50 land
        # on its Table 1 "16" configuration: non-DP alternatives buy nothing.
        tolerance = 1.03
        near_best = [item for item in scored if item[0] <= best_cost * tolerance]
        cost, stages = min(near_best, key=lambda item: (len(item[1]), item[0]))
        if id(stages) not in footprints:
            with obs.span("footprint"):
                footprints[id(stages)] = self._true_footprint(stages)
        return cost, stages, footprints[id(stages)]

    def _decompositions(self, topology: Topology) -> List[Topology]:
        """The topologies the per-level DP is run on: the hierarchy itself
        plus (for multi-level clusters) its flattened form."""
        if topology.num_levels > 1:
            return [topology, topology.flat()]
        return [topology]

    def _true_footprint(self, stages: Sequence[Stage]) -> List[int]:
        """The simulator's per-stage footprint for a candidate plan."""
        # Imported lazily: repro.sim.memory imports Stage from this module.
        from repro.sim.memory import pipeline_memory_footprint

        return pipeline_memory_footprint(self.profile, stages)

    # ------------------------------------------------------------------
    # The refinement pass: depth-aware flat DP over worker suffixes
    # ------------------------------------------------------------------
    def _solve_refined(self, topology: Topology) -> Optional[List[Stage]]:
        """Placement-exact DP whose memory mask uses the *exact* 1F1B depth.

        §3.3's actual stash depth is the stage's warmup count
        ``ceil(sum_{t>=s} r_t / r_s)`` — NOAM at the input stage, 1 at the
        output stage.  Depth depends on the workers *downstream* of a
        stage, which the (i→j, m) recurrence cannot see, so this pass
        reformulates the DP over layer suffixes: ``R(j, m)`` is the best
        pipeline over layers ``j..n-1`` using exactly ``m`` workers.  A
        leading stage ``j..k`` on ``m'`` of those workers then has exactly
        ``m`` workers at-or-downstream, so its true depth is
        ``ceil(m / m')`` and the mask

            stage_memory_cost(weights, deferred, acts, ceil(m/m'), m') <= L

        — the shared §3.3 kernel at the exact depth and replica count — is
        precisely ``pipeline_memory_footprint <= L`` for that stage in any
        plan this DP emits.

        The suffix form has a second payoff: with the evaluator's
        stage-major packing, a suffix of ``m`` workers occupies workers
        ``[W-m, W-1]`` and its leading stage the contiguous group
        ``[W-m, W-m+m'-1]`` — one concrete replica group and boundary
        link per ``(m, m')`` pair.  The DP therefore prices sync and
        activation transfers with the *same hierarchical placement model*
        the candidate scoring uses (see :meth:`_refined_tp_tables`),
        instead of the flat slowest-link approximation, so its optimum is
        the evaluator's optimum over depth-feasible plans.

        Returns ``None`` when no plan fits (the caller may still have
        bound-filtered candidates).
        """
        from repro.sim.network import Placement

        sig = tuple((lv.count, lv.bandwidth, lv.allreduce_bandwidth,
                     lv.allreduce_latency) for lv in topology.levels)
        # A ring table is a pure function of the topology signature and its
        # degree (no memory / option dependence), so one entry serves every
        # cap, option mix and menu holding that degree.
        with obs.span("refined.rings"):
            tables = {
                t: self._memo("comm", (sig, t), functools.partial(
                    self._refined_tp_tables, topology, t))
                for t in self._tp_options
            }
        # link_bw[w]: the link between workers w-1 and w (w >= 1).
        placement = Placement(topology)
        link_bw = [topology.levels[0].bandwidth] + [
            placement.link_bandwidth(w - 1, w)
            for w in range(1, topology.total_workers)]
        return self._solve_refined_dp(topology, link_bw, tables)

    def _refined_tp_tables(self, topology: Topology, t: int):
        """Placement-exact collective factors of degree-``t`` cells.

        For each ``(m, mp)`` suffix cell with ``t | mp``, the stage
        occupies the contiguous physical span ``[W-m, W-m+mp-1]`` packed
        as ``r = mp/t`` replicas of ``t`` consecutive shards.  Its two
        collectives price separately and *must not* be fused into one
        ring over the span (the mixed dp×tp span fix):

        - the data-parallel sync runs per shard group over the *strided*
          representative ids ``{W-m+q*t}`` — its ring only pays the setup
          latency α of the levels that strided group actually crosses.
          At ``t = 1`` that is the contiguous replica group itself;
        - the intra-stage boundary collectives ring over each replica's
          ``t`` *consecutive* shards; the per-cell factor takes the
          elementwise max over the ``r`` groups (the round ends with the
          slowest one, e.g. the group straddling a machine boundary).
          A one-worker group at ``t = 1`` prices 0.

        Every cell is priced in array passes.  Cell ``mp`` of row ``m``
        holds the first ``mp/t`` representatives, so its per-level ring
        sizes are running maxima of segmented cumulative counts along the
        row (:func:`_prefix_ring_sizes`, the integers
        :meth:`~repro.sim.network.Placement.ring_sizes` counts); each
        shard group's sizes are the last prefix of its own row.  Each
        distinct size tuple, strided or shard, is priced by one
        :func:`~repro.sim.network.ring_cost_factors` call, so the planner
        and the simulator agree bitwise, and a row's shard factor is the
        running max of its groups'.  Returns ``(dp_coeff, dp_lat,
        tp_coeff, tp_lat)`` as ``(W+1, W+1)`` arrays indexed ``[m][mp]``
        (0 off the cells).
        """
        from repro.sim.network import ring_cost_factors

        W = topology.total_workers
        # Row m - t lists row m's representatives W-m+q*t; row w of
        # ``shards`` the shard group starting at worker w.
        m = np.arange(t, W + 1)[:, None]
        q = np.arange(W // t)[None, :]
        valid = q < m // t
        reps = np.minimum(W - m + q * t, W - t)  # past a row's end: unread
        shards = np.arange(max(W - t + 1, 0))[:, None] + np.arange(t)
        # One (coeff, lat) per strided cell, then one per shard group.
        sizes = np.concatenate([_prefix_ring_sizes(topology, reps)[valid],
                                _prefix_ring_sizes(topology, shards)[:, -1]])
        at, of = _distinct(*sizes.T)
        priced = np.array([ring_cost_factors(topology, sizes[e].tolist())
                           for e in at]).reshape(-1, 2)[of]
        row, col = np.nonzero(valid)
        tables = np.zeros((4, W + 1, W + 1))
        tables[:2, row + t, (col + 1) * t] = priced[:len(row)].T
        worst = np.maximum.accumulate(priced[len(row):][reps], axis=1)
        tables[2:, row + t, (col + 1) * t] = worst[valid].T
        return tuple(tables)

    def _span_tables(self) -> SimpleNamespace:
        """The span planes both DPs read, built once per optimizer from the
        range table and held as a *packed upper triangle*: entry ``c``
        sums span ``tri[0][c]..tri[1][c]`` of compute / weights / deferred
        (BPTT) weights / activations / backward and their shardable shares
        (``S*``), for the ``n(n+1)/2`` spans ``i <= j`` in row-major
        order; ``at[i, j]`` is span ``i..j``'s entry (0 for ``i > j``,
        which no plan reads) and ``diag`` the single-layer entries.
        Seconds are the span's sum over the topology's ``compute_scale``,
        in :func:`~repro.sim.network.stage_terms`' order (the difference,
        then the division).  ``acts`` / ``bacts`` are the per-layer output
        and input-boundary (0 at layer 0) bytes, ``out_acts`` /
        ``in_acts`` their value per entry (the span's last layer's output,
        its first layer's input), and ``sharded`` holds per tp degree the
        sharded compute planes.
        """
        if self._tables is None:
            rt, n = self._table, self._n
            iu, ju = np.triu_indices(n)
            at = np.zeros((n, n), dtype=np.int64)
            at[iu, ju] = np.arange(len(iu))

            columns = {"compute": "compute", "B": "backward",
                       "ST": "shard_compute", "SB": "shard_backward",
                       "W": "weights", "D": "deferred", "A": "acts",
                       "SW": "shard_weights", "SA": "shard_acts"}
            prefix = np.array([getattr(rt, c) for c in columns.values()],
                              dtype=float)
            sums = prefix[:, ju + 1] - prefix[:, iu]
            sums[:4] /= self.topology.compute_scale  # the seconds columns
            acts = np.asarray(rt.out_bytes, dtype=float)
            bacts = np.asarray(rt.in_bytes, dtype=float)
            tb = SimpleNamespace(
                tri=(iu, ju), at=at, diag=np.diagonal(at),
                acts=acts, bacts=bacts, out_acts=acts[ju], in_acts=bacts[iu],
                **dict(zip(columns, sums)),
            )
            tb.WD = tb.W - tb.D
            # Per tp degree: the stage compute with the shardable share
            # divided by t, and its checkpointed form (one extra *sharded*
            # forward: compute minus backward), stacked as a (2, spans)
            # array; degree 1 is the unsharded pair.
            tb.sharded = {1: np.array(
                [tb.compute, tb.compute + (tb.compute - tb.B)])}
            for t in self._tp_options[1:]:
                sc = tb.compute - tb.ST + tb.ST / t
                tb.sharded[t] = np.array(
                    [sc, sc + (sc - (tb.B - tb.SB + tb.SB / t))])
            self._tables = tb
        return self._tables

    def _sync_terms(self, stream, deferred, coeff, lat, div):
        """§3.1's sync term, spelled once for both DPs: a stage replicated
        ``r`` ways costs ``max(compute / r, overlappable) + blocked`` with

            overlappable = stream · coeff / div + α · buckets / div
            blocked      = deferred · coeff / div + α / div

        over packed ``stream`` / ``deferred`` payload bytes (wait-free vs.
        BPTT-deferred, see ``RECURRENT_KINDS``); ``coeff`` / ``lat`` are the
        replica group's ring seconds-per-byte and setup latency α, ``div``
        the minibatches one sync round covers, ``buckets`` the
        :meth:`_bucket_matrix`.  ``coeff`` / ``lat`` / ``div`` may be
        scalars or ``(K, 1)`` arrays (one plane per entry).  A
        payload-free span pays no α, and where no entry has ``lat > 0`` the
        α terms are skipped, keeping α = 0 tables bitwise equal to the
        latency-free model (an entry with α = 0 beside one with α > 0 adds
        an exact ``+0.0``).
        """
        overlappable = stream * coeff / div
        blocked = deferred * coeff / div
        if np.any(lat > 0.0):
            overlappable = overlappable + np.where(
                stream > 0, lat * self._bucket_matrix() / div, 0.0
            )
            blocked = blocked + np.where(deferred > 0, lat / div, 0.0)
        return overlappable, blocked

    def _refined_fits(self, versions, replicas, t: int):
        """Memory masks ``(fits, fits_checkpointed)`` of a leading stage:
        the shared kernel at the exact 1F1B depth ``versions`` =
        ``ceil(m/mp)`` (physical workers downstream over physical workers
        held — :func:`warmup_count`'s tp-aware generalization) with
        ``replicas`` logical replicas of ``t`` shards.  Integer
        ``versions`` / ``replicas`` give packed masks over the spans;
        ``(K, 1)`` integer arrays give ``(K, spans)`` stacks, one per
        entry, which is how the suffix DP prices every distinct mask key
        in one call (:meth:`_refined_planes`).
        """
        tb = self._span_tables()
        limit = self.memory_limit_bytes
        shard = dict(tp_degree=t, shardable_weight_bytes=tb.SW,
                     shardable_activation_bytes=tb.SA)
        fits = self._stage_memory_cost(
            tb.W, tb.D, tb.A, versions, replicas, **shard) <= limit
        if not self._recompute_auto:
            return fits, None
        cost_r = self._stage_memory_cost(
            tb.W, tb.D, tb.A, versions, replicas, recompute=True,
            boundary_activation_bytes=tb.in_acts, **shard)
        return fits, cost_r <= limit

    def _tp_plane(self, compute, mask, t: int, r, div, dp_coeff, dp_lat,
                  tp_coeff, tp_lat):
        """Time of a stage of ``r`` replicas of ``t`` consecutive shards —
        the level DP's ``T^k(i→j, m)`` and the refined DP's cell — whose
        ``compute`` already divides the shardable share by ``t`` (the rest
        is replicated work every shard repeats).  Planes are packed like
        the :meth:`_span_tables` ones.  ``r`` and the ring terms are
        scalars (one plane) or ``(K, 1)`` arrays (a ``(K, spans)`` stack,
        one plane per entry); ``t`` is one degree.  A ``(D, 1, spans)``
        ``compute`` (both checkpoint depths) gives a ``(D, K, spans)``
        stack that prices the sync terms the depths share once.

        - with ``t > 1`` every minibatch pays two intra-stage collectives
          on the slowest shard group (ring ``tp_coeff`` seconds per byte +
          ``tp_lat``): the forward allgather of the stage's *output*
          boundary activations — charged for the last stage too, so tp
          never degenerates into free compute division — and the backward
          reduce-scatter of the *input* boundary (zero at the input stage,
          which reads training data);
        - the replicas pay §3.1's sync term (:meth:`_sync_terms`): the
          *sharded* eager payload streams over the strided representative
          group (``dp_coeff``/``dp_lat``), one round covering ``div``
          minibatches; deferred (BPTT) weights are unshardable by
          construction and sync in full.  A single replica has a zero ring
          coefficient and its α is dropped here, so its sync is an exact
          ``+0.0`` and its plane is ``compute``.

        The level DP prices both rings with its level's flat ring (both
        stay within one level-1 component group there) and amortises an
        inner level's sync over the components' workers too; the refined
        DP reads the placement-exact tables of :meth:`_refined_tp_tables`.
        Cells outside ``mask`` — and every replicated cell with
        replication off — are ``inf``.
        """
        tb = self._span_tables()
        if not self.allow_replication:
            mask = mask & (r == 1)
        # One output array, every step in place in it; the tp terms are
        # freed before the sync terms are priced.
        plane = np.empty(np.broadcast(
            compute, r, div, dp_coeff, dp_lat, tp_coeff, tp_lat).shape)
        if t > 1:
            acts, bacts = tb.out_acts, tb.in_acts
            out_term, in_term = acts * tp_coeff, bacts * tp_coeff
            if np.any(tp_lat > 0.0):
                out_term += np.where(acts > 0, tp_lat, 0.0)
                in_term += np.where(bacts > 0, tp_lat, 0.0)
            out_term += in_term
            compute = np.add(compute, out_term, out=plane)
            del out_term, in_term
        np.divide(compute, r, out=plane)
        stream = tb.WD if t == 1 else tb.WD - tb.SW + tb.SW / t
        overl, nonov = self._sync_terms(
            stream, tb.D, dp_coeff, np.where(r > 1, dp_lat, 0.0), div)
        np.maximum(plane, overl, out=plane)
        plane += nonov
        np.copyto(plane, math.inf, where=np.logical_not(mask))
        return plane

    def _refined_planes(self, W: int, tables) -> SimpleNamespace:
        """The masked stage-time planes the suffix-DP rows ``1..W`` read,
        and the rows' candidate entries into them.

        Per degree ``t``, cell ``(m, mp)`` (``mp = t, 2t, … <= m``) needs
        the memory masks at depth ``d = ceil(m/mp)`` and ``r = mp/t``
        replicas (:meth:`_refined_fits`) and the stage times at ``r``
        replicas over its ring entries (:meth:`_tp_plane`); both repeat
        across cells.  The kernel reads ``r`` only through the stash
        versions ``ceil(d/r)``, so masks are keyed ``(d, ceil(d/r))`` and
        priced at one representative cell's real ``r``.  Each distinct
        key is priced once, in one batched kernel call per checkpoint
        depth over ``(K, 1)`` key arrays; one :meth:`_tp_plane` call per
        degree prices both depths' times; and each distinct (mask, time)
        pair is masked once, in place in its degree's block of the one
        ``stack``: checkpointed times where they fit, stash-everything over
        them where *those* fit.

        Returns a namespace: ``stack`` (``sizes[t]`` rows per degree, in
        menu order) and one entry per cell, ordered ``(m asc, mp asc, t
        asc)`` — its stack row ``sel``, ``mp``, ``t`` and ``rest = m - mp``
        — with ``at[m - 1]`` the slice of row ``m``'s entries.
        """
        tb = self._span_tables()
        depth = 2 if self._recompute_auto else 1
        wanted = np.arange(1, W + 1)
        # Every (m, mp) pair, then one entry per degree dividing mp: the
        # row-major order is (m, mp, t), and one degree's entries alone
        # are its cells in (m, mp) order.
        row = np.repeat(wanted, wanted)
        mp = np.arange(1, len(row) + 1) - np.repeat(
            np.cumsum(wanted) - wanted, wanted)
        menu = np.asarray(self._tp_options)
        pair, degree = np.nonzero(mp[:, None] % menu == 0)
        row, out = row[pair], SimpleNamespace(mp=mp[pair], t=menu[degree])
        out.rest, out.sel = row - out.mp, np.empty(len(row), dtype=np.int64)
        ends = np.searchsorted(row, np.arange(W + 1), "right")
        out.at = [slice(a, b) for a, b in zip(ends, ends[1:])]
        # The index passes and the memory kernel run before the stack is
        # allocated, and the masking gathers 64 pairs at a time, so neither
        # the kernel's temporaries nor a degree's gathered times sit beside
        # the whole stack.
        blocks, out.sizes = [], {}
        for t in self._tp_options:
            cell = np.flatnonzero(out.t == t)
            if not len(cell):
                break
            m, r = row[cell], out.mp[cell] // t
            depths = -(-m // (r * t))
            rings = [table[m, r * t] for table in tables[t]]
            fits_at, fits_of = _distinct(depths, -(-depths // r))
            time_at, time_of = _distinct(r, *rings)
            pair_at, pair_of = _distinct(fits_of, time_of)
            out.sel[cell] = sum(out.sizes.values()) + pair_of
            out.sizes[t] = len(pair_at)
            blocks.append((t, self._refined_fits(
                depths[fits_at, None], r[fits_at, None], t),
                [column[time_at, None] for column in (r, *rings)],
                fits_of[pair_at], time_of[pair_at]))
        block = out.stack = np.full((sum(out.sizes.values()), len(tb.W)),
                                    math.inf)
        for t, fits, (r, *ring), fits_of, time_of in blocks:
            times = self._tp_plane(tb.sharded[t][:depth, None], True, t,
                                   r, r, *ring)
            for first in range(0, len(time_of), 64):
                part = slice(first, min(first + 64, len(time_of)))
                for c in reversed(range(depth)):
                    np.copyto(block[part], times[c][time_of[part]],
                              where=fits[c][fits_of[part]])
            # On to the next degree's block, this degree's times freed.
            block, times = block[len(time_of):], None
        return out

    def _solve_refined_dp(
        self, topology: Topology, link_bw, tables
    ) -> Optional[List[Stage]]:
        """The suffix DP: per worker count, one argmin over its (k, m', t)
        candidates in the (k asc, m' asc, t asc) first-minimum tie-break of
        the scalar loop nest kept as the oracle in
        ``tests/oracles/partition_reference.py``; values are selections of
        identically computed floats, so the two agree bitwise.

        A leading stage on ``mp`` of the suffix's ``m`` workers prefers
        stash-everything whenever that fits the limit (so generous limits
        stay bitwise identical to the recompute-free solver) and, under
        ``recompute="auto"``, falls back to checkpointing — boundary-only
        stash, one extra forward of compute — only when stash-everything
        busts the cap.  :meth:`_reconstruct_refined` re-derives the same
        decision from the same arithmetic.

        Every masked plane the rows read is built up front in batched
        array passes (:meth:`_refined_planes`).  A candidate's boundary
        (into worker ``W-m+mp``) and rest (``R[m-mp]``) share one index
        ``r = m - mp``, so ``BR[r]``, their max per packed span, is folded
        once, right after row ``r`` is computed.  Row ``m``'s candidates
        are then ``max(stack[sel], BR[rest])`` over its entries, one
        gather from each, ordered ``(mp asc, t asc)``.  The argmin runs in
        passes — the minimum over entries per span, unpacked into an
        ``(n, n)`` plane of ``inf`` below the diagonal for the first ``k``
        reaching it per ``j``, then the first entry at that span — which
        is the k-major first minimum without the transposed copy a
        flattened argmin needs.
        """
        n = self._n
        W = topology.total_workers
        tb = self._span_tables()
        iu, ju = tb.tri
        # boundary[w, c]: 2 a_k / B over the link into worker w, where a
        # rest starting at w receives the output of span c's last layer k
        # (the model's last layer sends nothing).
        bw = np.asarray([link_bw[min(w, W - 1)] for w in range(W + 1)])
        boundary = np.where(ju < n - 1, 2.0 * tb.out_acts / bw[:, None], 0.0)
        R = np.full((W + 1, n + 1), math.inf)
        R[0, n] = 0.0
        BR = np.full((W + 1, len(ju)), math.inf)
        ptr_k, ptr_mp = np.full((2, W + 1, n), -1, dtype=np.int64)
        ptr_tp = np.ones((W + 1, n), dtype=np.int64)
        cols = np.arange(n)
        by_k = np.full((n, n), math.inf)
        with obs.span("refined.planes") as phase:
            planes = self._refined_planes(W, tables)
            if phase is not None:
                phase.attrs["stack_rows"] = planes.sizes
        # Row 0, the empty suffix, is final from the start.
        BR[0] = np.maximum(boundary[W], R[0, ju + 1])
        with obs.span("refined.rows", rows=W):
            for m, e in enumerate(planes.at, start=1):
                cand = planes.stack[planes.sel[e]]
                np.maximum(cand, BR[planes.rest[e]], out=cand)
                by_k[iu, ju] = cand.min(axis=0)
                k = by_k.argmin(axis=1)
                pick = cand[:, tb.at[cols, k]].argmin(axis=0) + e.start
                best = by_k[cols, k]
                finite = np.isfinite(best)
                R[m, :n] = np.where(finite, best, math.inf)
                ptr_k[m] = np.where(finite, k, -1)
                ptr_mp[m] = np.where(finite, planes.mp[pick], -1)
                ptr_tp[m] = np.where(finite, planes.t[pick], 1)
                BR[m] = np.maximum(boundary[W - m], R[m, ju + 1])
        if not np.isfinite(R[W, 0]):
            return None
        return self._reconstruct_refined(ptr_k, ptr_mp, W, ptr_tp)

    def _reconstruct_refined(self, ptr_k, ptr_mp, W: int, ptr_tp) -> List[Stage]:
        """Walk the suffix DP's back-pointers front to back.

        Under ``recompute="auto"`` the per-stage flag is re-derived from
        the exact arithmetic the masks used: a chosen stage checkpoints
        iff its stash-everything cost busts the limit (the DP only
        admitted such a cell through the recompute mask, and always
        prefers stash-everything when it fits).  ``ptr_tp`` carries the
        chosen degree per cell; ``mp`` stays the *physical* worker count,
        so the emitted stage holds ``mp/t`` logical replicas.
        """
        n = self._n
        tb = self._span_tables()
        stages: List[Stage] = []
        j, m = 0, W
        while j < n:
            k, mp, t = (int(ptr[m][j]) for ptr in (ptr_k, ptr_mp, ptr_tp))
            recompute = False
            if self._recompute_auto:
                c = tb.at[j, k]
                recompute = bool(self._stage_memory_cost(
                    tb.W[c], tb.D[c], tb.A[c], -(-m // mp), mp // t,
                    tp_degree=t, shardable_weight_bytes=tb.SW[c],
                    shardable_activation_bytes=tb.SA[c],
                ) > self.memory_limit_bytes)
            stages.append(Stage(j, k + 1, mp // t, recompute=recompute,
                                tp_degree=t))
            j, m = k + 1, m - mp
        return stages

    def _solve_for(self, topology: Topology) -> Optional[List[Stage]]:
        """Run the level-by-level DP on ``topology``; returns the stages
        (``None`` when the decomposition has no feasible plan).

        Per level k the recurrence

            A^k(i→j, m) = min( T^k(i→j, m),
                               min_{s, m'} max(A^k(i→s, m-m'),
                                               2 a_s / B_k,
                                               T^k(s+1→j, m')) )

        runs as array operations: ``T[m]`` is an (n, n) stage-time table
        built from the packed span sums (or the previous level's ``A``
        table), and for each m the split minimization reduces a
        (m', i, j, s) candidate cube in passes — the minimum over m', the
        first s reaching it, the first m' at that s — which is the
        (s asc, m' asc) tie-break of the scalar loop nest kept as the
        oracle in ``tests/oracles/partition_reference.py``; infeasible
        cells carry +inf.  Values are selections (max/min) of
        identically-computed floats, so the two agree bitwise.

        An inner level fills ``A^k`` for every span — the level above
        reads all of them through ``T^{k+1}`` — and prices only splits
        ``i <= s < j``: its (i, j) plane is tiled into blocks, each
        scanning the splits from its first row to its last column, about
        ``n³ m_k² / 12`` cells against the full cube's ``n³ m_k² / 2``.
        Nothing reads the *last* level except the answer
        ``A^L(0→N-1, m_L)``, whose recurrence never leaves row ``i = 0``
        (``A(0→s, m-m')`` on the left, ``T(s+1→j, m')`` on the right), so
        the top level's ``A``/pointer tables hold that one row, one
        block of the same cube code: ``O(N² m_L²)``, and the flat
        decomposition — a single, top level of all ``W`` workers — is
        ``O(N² W²)``.  The level-cache key carries a ``"row0"`` tag for
        the one-row tables.

        ``T^k(i→j, m)`` is a stage spanning layers i..j replicated over
        ``m`` level-(k-1) components (each holding ``prev_workers``
        workers).  Its effective per-minibatch time is the max of the
        amortized compute rate ``A^{k-1}(i→j, m_{k-1}) / m`` and the
        level-k ring all_reduce share ``2 (m-1)/m |w| / B_k^ar``,
        amortized over the round of ``m * prev_workers`` minibatches that
        one synchronization covers (replicas synchronize once per
        round-robin sweep, §3.2/§4), plus the non-overlappable BPTT share
        (see :meth:`_sync_terms`).  This is the paper's §3.1 formulation
        with the communication term normalized to once-per-round semantics
        so the optimizer, the discrete-event simulator, and the training
        runtime share one cost model (see DESIGN.md).
        """
        n = self._n
        tb = self._span_tables()
        feasible = True
        if self.memory_limit_bytes is not None:
            # Phase-1 feasibility of span i..j: the shared-kernel bound.
            feasible = (self._bound_matrix()[tb.tri]
                        <= self.memory_limit_bytes)

        # tables[k-1] = (A, ptr_s, ptr_mp, tchoice); ptr < 0 encodes
        # "single stage".  The namespace prefix keeps a table to the solver
        # options that built it (it bakes the memory-feasibility mask and
        # the replication flag into A).  The last level holds row 0 only
        # and its key says so: a full table may answer a row-0 lookup, a
        # row-0 table never answers a full one.
        tables: List[tuple] = []
        prev_workers = 1
        key_parts: List[Tuple[int, float, float, float]] = []
        for k, level in enumerate(topology.levels, start=1):
            key_parts.append((level.count, level.bandwidth,
                              level.allreduce_bandwidth,
                              level.allreduce_latency))
            row0 = k == len(topology.levels)
            full_key = self._cache_ns + ("level", tuple(key_parts))
            compute = (tb.compute if k == 1
                       else tables[-1][0][topology.levels[k - 2].count][tb.tri])
            tables.append(self._memo(
                "level", full_key + ("row0",) if row0 else full_key,
                lambda: self._level_table(
                    level, compute, prev_workers, feasible, row0, k == 1),
                fallback=full_key if row0 else None,
            ))
            prev_workers *= level.count

        top = len(topology.levels)
        top_count = topology.levels[top - 1].count
        if not math.isfinite(tables[top - 1][0][top_count, 0, n - 1]):
            return None
        return self._reconstruct_arrays(tables, topology, top, 0, n - 1, top_count)

    def _level_table(self, level: TopologyLevel, compute, prev_workers: int,
                     feasible, row0: bool, leaf: bool) -> tuple:
        """One level's ``(A, ptr_s, ptr_mp, tchoice)`` arrays (see
        :meth:`_solve_for`); ``compute`` is ``T^{k-1}``'s answer per packed
        span (the span sums at the leaf), ``feasible`` the packed phase-1
        mask, ``row0`` keeps row ``i = 0`` only."""
        n = self._n
        inf = math.inf
        mk, bandwidth = level.count, level.bandwidth
        arbw, alpha = level.allreduce_bandwidth, level.allreduce_latency

        # ----- T^k(i→j, m) tables ---------------------------------------
        # Degree 1 seeds every cell; at the leaf each larger degree on the
        # menu folds in with strict '<' (degrees ascending), before the A
        # recurrence so splits see the tp'd stage times.  The tp axis
        # shards level-1 (leaf) stages only: upper levels replicate
        # whatever the leaf chose, keeping the conservative full-payload
        # sync of the two-axis model.  One _tp_plane call per degree
        # prices its cells m = t, 2t, ... as one packed stack, unpacked
        # once into (m, i, j) planes, inf below the diagonal.  tchoice[m,
        # c] is packed span c's degree, copied out of a read-only view of
        # ones only once a larger degree folds.
        tb = self._span_tables()
        menu = ({t: tb.sharded[t][0] for t in self._tp_options} if leaf
                else {1: compute})
        packed = np.full((mk + 1, len(tb.W)), inf)
        tchoice = np.broadcast_to(np.int64(1), packed.shape)
        for t, sharded in menu.items():
            ms = np.arange(t, mk + 1, t)
            r = (ms // t)[:, None]
            planes = self._tp_plane(
                sharded, feasible, t, r, r * prev_workers,
                2.0 * (r - 1) / r / arbw, alpha, 2.0 * (t - 1) / t / arbw, alpha)
            better = planes < packed[ms]  # degree 1 over inf: the plane
            packed[ms] = np.where(better, planes, packed[ms])
            if t > 1:
                tchoice = np.array(tchoice, copy=not tchoice.flags.writeable)
                tchoice[ms] = np.where(better, t, tchoice[ms])
        T = np.full((mk + 1, n, n), inf)
        T[:, tb.tri[0], tb.tri[1]] = packed

        # ----- A^k recurrence -------------------------------------------
        # Rows i the table holds: all of them for an inner level (the
        # level above reads every span), row 0 alone for the top one.  A
        # cell keeps its single-stage time unless a split beats it.
        ni = 1 if row0 else n
        A = T[:, :ni].copy()
        ptr_s = np.full((mk + 1, ni, n), -1, dtype=np.int64)
        ptr_mp = np.full((mk + 1, ni, n), -1, dtype=np.int64)
        if n == 1 or mk == 1:
            return A, ptr_s, ptr_mp, tchoice
        boundary = 2.0 * tb.acts[: n - 1] / bandwidth
        # right[mp-1, j, s] = T[mp][s+1, j], built once: each m reads its
        # mp < m prefix.
        right = np.ascontiguousarray(T[1:mk, 1:, :].transpose(0, 2, 1))
        # The split cube is priced in (row, column) blocks: a row-0 table
        # is one block, a full one has about 20 layers a side (one block
        # below 30 layers, where a smaller cube does not repay numpy's
        # per-call cost); only blocks holding a span i < j are kept.
        size = n if row0 else -(-n // max(1, round(n / 20)))
        spans = [(slice(i, min(i + size, ni)), slice(j, min(j + size, n)))
                 for i in range(0, ni, size) for j in range(0, n, size)
                 if i < min(j + size, n) - 1]
        blocks = [(rows, cols, np.arange(rows.stop - rows.start)[:, None],
                   np.arange(cols.stop - cols.start)) for rows, cols in spans]
        for m in range(2, mk + 1):
            # left[mp-1, i, s] = max(A[m-mp][i, s], 2a_s/B): the boundary
            # folds into the small left operand.
            left = np.maximum(A[m - 1:0:-1, :, : n - 1], boundary)
            for rows, cols, ii, jj in blocks:
                # cand[mp-1, i, j, s] = max(left[mp-1, i, s], right[mp-1,
                # j, s]) over the splits s the block's cells can take,
                # first row <= s < last column (every other split is inf
                # via the tables).  The argmin runs in passes — the minimum
                # over m' per (i, j, s), the first s reaching it, then the
                # first m' at that s — which is the (s asc, m' asc)
                # first-minimum tie-break.
                first, stop = rows.start, cols.stop - 1
                cand = np.maximum(left[:, rows, None, first:stop],
                                  right[: m - 1, None, cols, first:stop])
                by_s = cand.min(axis=0)
                split = by_s.argmin(axis=-1)
                best = by_s[ii, jj, split]
                use = best < T[m, rows, cols]  # strict: single stage wins ties
                np.copyto(A[m, rows, cols], best, where=use)
                np.copyto(ptr_s[m, rows, cols], first + split, where=use)
                np.copyto(ptr_mp[m, rows, cols],
                          cand[:, ii, jj, split].argmin(axis=0) + 1, where=use)
        return A, ptr_s, ptr_mp, tchoice

    def _reconstruct_arrays(
        self,
        tables: Sequence[Tuple[np.ndarray, ...]],
        topology: Topology,
        k: int,
        i: int,
        j: int,
        m: int,
    ) -> List[Stage]:
        """Flatten the nested back-pointer tables into concrete stages.

        A level-1 cell's ``tchoice`` entry is its degree: a leaf that chose
        degree ``t`` emits ``m/t`` replicas of tp width ``t`` (upper levels
        then multiply replicas only, preserving the shard width)."""
        if k == 0:
            return [Stage(i, j + 1, 1)]
        _, ptr_s, ptr_mp, tchoice = tables[k - 1]
        s = int(ptr_s[m, i, j])
        if s < 0:
            if k == 1:
                t = int(tchoice[m, self._span_tables().at[i, j]])
                return [Stage(i, j + 1, m // t, tp_degree=t)]
            # Single level-k stage replicated over m components; expand its
            # internal level-(k-1) pipeline and multiply replica counts.
            prev_capacity = topology.levels[k - 2].count
            inner = self._reconstruct_arrays(
                tables, topology, k - 1, i, j, prev_capacity
            )
            return [replace(st, replicas=st.replicas * m) for st in inner]
        m_prime = int(ptr_mp[m, i, j])
        left = self._reconstruct_arrays(tables, topology, k, i, s, m - m_prime)
        if k == 1:
            t = int(tchoice[m_prime, self._span_tables().at[s + 1, j]])
            right = [Stage(s + 1, j + 1, m_prime // t, tp_degree=t)]
        else:
            prev_capacity = topology.levels[k - 2].count
            inner = self._reconstruct_arrays(
                tables, topology, k - 1, s + 1, j, prev_capacity
            )
            right = [
                replace(st, replicas=st.replicas * m_prime) for st in inner
            ]
        return left + right


def _prefix_ring_sizes(topology: Topology, members: np.ndarray) -> np.ndarray:
    """``(R, C, levels)`` per-level ring sizes
    (:meth:`~repro.sim.network.Placement.ring_sizes`) of every prefix
    ``members[r, :c+1]`` of ``(R, C)`` rows of ascending worker ids.  A
    level's parents and children are runs along a row, so the child count
    under the current parent is a cumulative count of child changes minus
    the count where that parent's run began, and the ring size is its
    running max."""
    sizes, per = [], 1
    for level in topology.levels:
        child, per = members // per, per * level.count
        count = np.cumsum(np.diff(child, axis=1, prepend=-1) > 0, axis=1)
        start = np.diff(members // per, axis=1, prepend=-1) > 0
        count -= np.maximum.accumulate(np.where(start, count - 1, 0), axis=1)
        sizes.append(np.maximum.accumulate(count, axis=1))
    return np.stack(sizes, axis=-1)


def _distinct(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(at, of)`` over equal-length 1-D key columns: ``at`` indexes one
    entry per distinct key tuple, and entry ``e``'s key is that of
    ``at[of[e]]``.  One stable lexicographic sort (``np.lexsort``) puts
    equal key tuples next to each other and a group starts wherever a
    column changes, so no tuple is hashed and no combined code can
    overflow; ``at`` is each group's first entry, in key order."""
    order = np.lexsort(columns[::-1])
    start = np.zeros(len(order), dtype=bool)
    start[:1] = True
    for column in columns:
        ranked = column[order]
        start[1:] |= ranked[1:] != ranked[:-1]
    of = np.empty_like(order)
    of[order] = np.cumsum(start) - 1
    return order[start], of


# ----------------------------------------------------------------------
# Evaluation of arbitrary partitions (used for Figure 15 and the simulator
# cross-checks) and communication accounting (Figure 17).
# ----------------------------------------------------------------------

def communication_bytes_per_minibatch(
    profile: ModelProfile, stages: Sequence[Stage]
) -> float:
    """Total bytes crossing worker boundaries per minibatch.

    Stage boundaries contribute activations forward plus gradients backward
    (2 a_s).  A stage replicated ``r`` ways synchronizes once per *round* of
    ``r`` minibatches with a ring all_reduce moving ``2 (r-1) |w|`` bytes in
    total, i.e. ``2 (r-1) |w| / r`` amortized per minibatch.

    A stage of tensor-parallel degree ``t`` syncs per *shard group*: each
    of the ``t`` concurrent r-member rings moves the shard's payload — the
    unshardable weights replicated on every shard plus a ``1/t`` slice of
    the shardable share — and every minibatch additionally pays the
    intra-stage ring all_reduce on the boundary activations (``2 (t-1) a``
    bytes total across the group, for both the output and, past stage 0,
    the input boundary).  At ``t = 1`` both reduce to the plain stage's
    (integer byte counts keep the payload exact).
    """
    _check_stages(len(profile), stages)
    from repro.sim.network import _shard_share

    tables = range_table(profile)
    total = 0.0
    for idx, stage in enumerate(stages):
        t = stage.tp_degree
        payload = t * _shard_share(
            tables, stage,
            tables.weights[stage.stop] - tables.weights[stage.start])
        total += 2.0 * (stage.replicas - 1) * payload / stage.replicas
        out_act = tables.out_bytes[stage.stop - 1]
        total += 2.0 * (t - 1) * (out_act + tables.in_bytes[stage.start])
        if idx + 1 < len(stages):
            total += 2.0 * out_act
    return total


def data_parallel_bytes_per_minibatch(profile: ModelProfile, num_workers: int) -> float:
    """Communication volume of vanilla DP: the single-replicated-stage case."""
    stage = Stage(0, len(profile), num_workers)
    return communication_bytes_per_minibatch(profile, [stage])


def _check_stages(num_layers: int, stages: Sequence[Stage]) -> None:
    """Reject a stage list that is empty, leaves a gap, overlaps or does
    not cover layers ``0..num_layers - 1``."""
    if not stages:
        raise ValueError("empty stage list")
    if stages[0].start != 0 or stages[-1].stop != num_layers:
        raise ValueError("stages must cover the whole model")
    for left, right in zip(stages, stages[1:]):
        if left.stop != right.start:
            raise ValueError("stages must be contiguous")


@dataclass(frozen=True)
class PartitionEvaluation:
    """Per-stage breakdown of :func:`evaluate_partition_on_topology`.

    ``stage_times[i]`` is the effective per-minibatch time of stage ``i``
    (amortized compute vs. all_reduce); ``boundary_times[i]`` the
    point-to-point transfer between stages ``i`` and ``i+1``;
    ``memory_bytes[i]`` the simulated per-worker footprint of stage ``i``
    (``pipeline_memory_footprint`` under 1F1B warmup depths), with
    ``memory_limit_bytes`` echoing the caller's capacity (``None`` when
    unconstrained).

    ``sync_exposed[i]`` / ``sync_hidden[i]`` split stage ``i``'s
    per-minibatch weight-sync seconds into the share on the critical path
    (extends the round past its compute) and the share hidden under
    backward compute by wait-free overlap.  Their sum is the stage's
    total amortized sync duration; unreplicated stages report 0/0.
    ``bucket_bytes`` echoes the fusion granularity the evaluation was
    priced with (``None`` = the legacy single-payload model).
    """

    bottleneck_time: float
    stage_times: Tuple[float, ...]
    boundary_times: Tuple[float, ...]
    memory_bytes: Tuple[int, ...] = ()
    memory_limit_bytes: Optional[float] = None
    sync_exposed: Tuple[float, ...] = ()
    sync_hidden: Tuple[float, ...] = ()
    bucket_bytes: Optional[float] = None

    @property
    def bottleneck_stage(self) -> int:
        """Index of the slowest stage (first one on ties)."""
        return self.stage_times.index(max(self.stage_times))

    @property
    def fits_memory(self) -> bool:
        """True when every stage's footprint is within the limit (or no
        limit was given)."""
        if self.memory_limit_bytes is None:
            return True
        return all(m <= self.memory_limit_bytes for m in self.memory_bytes)


def evaluate_partition_details(
    profile: ModelProfile,
    stages: Sequence[Stage],
    topology: Topology,
    memory_limit_bytes: Optional[float] = None,
    bucket_bytes: Optional[float] = None,
) -> PartitionEvaluation:
    """Like :func:`evaluate_partition_on_topology` with the full breakdown.

    One pricing loop (:func:`_evaluate_details`) composes each stage's
    terms from :func:`repro.sim.network.stage_terms`.
    ``bucket_bytes`` switches a replicated stage's sync pricing from the
    legacy single-payload model to the bucketed wait-free walk of
    :func:`_bucketed_stage_sync` (gradients fused into buckets of at most
    ``bucket_bytes``, each collective firing as its layers' backward
    completes).  ``None`` (default) leaves the single-payload model — and
    therefore every pre-bucketing result — untouched.

    The per-stage memory column is integer arithmetic;
    ``memory_limit_bytes`` is echoed into the result for
    :attr:`PartitionEvaluation.fits_memory`.
    """
    _check_stages(len(profile), stages)
    # Imported lazily: repro.sim.memory imports Stage from this module.
    from repro.sim.memory import pipeline_memory_footprint

    result = _evaluate_details(profile, stages, topology, bucket_bytes)
    return replace(
        result,
        memory_bytes=tuple(pipeline_memory_footprint(profile, stages)),
        memory_limit_bytes=memory_limit_bytes,
    )


def evaluate_partition_on_topology(
    profile: ModelProfile,
    stages: Sequence[Stage],
    topology: Topology,
    bucket_bytes: Optional[float] = None,
) -> float:
    """Bottleneck time per minibatch of a stage list on a real topology.

    Reads the discrete-event simulator's stage terms
    (:func:`repro.sim.network.stage_terms`): a stage's sync is
    charged once per round of ``replicas`` minibatches (the
    non-overlappable BPTT portion additively); stage boundaries pay a
    point-to-point transfer at the bandwidth of the link between adjacent
    groups.  It skips :func:`evaluate_partition_details`'s §3.3 footprint.

    ``bucket_bytes`` opts into the bucketed wait-free sync model (see
    :func:`evaluate_partition_details`).
    """
    _check_stages(len(profile), stages)
    return _evaluate_details(
        profile, stages, topology, bucket_bytes).bottleneck_time


def _evaluate_details(
    profile: ModelProfile,
    stages: Sequence[Stage],
    topology: Topology,
    bucket_bytes: Optional[float],
) -> PartitionEvaluation:
    """The per-stage pricing loop behind every plan evaluation.

    A stage is ``replicas x tp_degree`` physical workers placed by
    :func:`repro.core.schedule._assign_workers`.  Every term — the
    tp-sharded compute and backward, the checkpoint replay, the tp
    boundary all_reduces (paid by every minibatch, the last stage
    included, so sharded compute is never free), the stream and deferred
    sync over the leader ring and the bucket list — comes from
    :func:`repro.sim.network.stage_terms`, the table the event engine
    reads too; this loop only composes them.

    With ``bucket_bytes`` a replicated stage's sync is the per-bucket walk
    of :func:`_bucketed_stage_sync` instead of the single-payload
    ``max(compute, stream) + blocked``.  The closed-form numpy evaluator in
    ``tests/oracles/evaluator_closed_form.py`` cross-checks the ``t = 1``,
    unbucketed branch bitwise.
    """
    from repro.core.schedule import _assign_workers
    from repro.sim.network import Placement, stage_terms

    occupied = sum(stage.replicas * stage.tp_degree for stage in stages)
    if occupied > topology.total_workers:
        raise ValueError(
            f"the plan occupies {occupied} workers but the topology "
            f"has {topology.total_workers}")
    placement = Placement(topology)
    leaders = _assign_workers(stages)
    terms = stage_terms(placement, profile, stages, leaders, bucket_bytes)
    stage_times: List[float] = []
    boundary_times: List[float] = []
    sync_exposed: List[float] = []
    sync_hidden: List[float] = []
    for idx, (stage, term) in enumerate(zip(stages, terms)):
        r = stage.replicas
        # Checkpointing replays the stage's forward inside the backward
        # window: the round grows by one forward and the backward phase
        # (which gates bucket readiness) absorbs it.
        compute = term.compute + term.replay
        backward = term.backward + term.replay
        stage_total = compute + (term.tp_out + term.tp_in)
        cost = stage_total / r
        exposed = hidden = 0.0
        if r > 1:
            if bucket_bytes is not None:
                round_time, round_exposed, total_sync = _bucketed_stage_sync(
                    term, compute, backward)
                cost = round_time / r
                exposed = round_exposed / r
                hidden = (total_sync - round_exposed) / r
            else:
                stream, blocked = term.stream, term.deferred
                cost = max(cost, stream / r) + blocked / r
                # Critical-path share of the sync: whatever the round costs
                # beyond its amortized compute.  The stream hides under the
                # compute up to its length; the deferred payload never does.
                exposed = cost - stage_total / r
                hidden = min(stream, stage_total) / r
        stage_times.append(cost)
        sync_exposed.append(exposed)
        sync_hidden.append(hidden)
        if idx + 1 < len(stages):
            first = leaders[idx + 1][0]
            bandwidth = placement.link_bandwidth(first - 1, first)
            boundary_times.append(2.0 * term.out_bytes / bandwidth)
    worst = max(max(stage_times), max(boundary_times, default=0.0))
    return PartitionEvaluation(
        worst, tuple(stage_times), tuple(boundary_times),
        sync_exposed=tuple(sync_exposed), sync_hidden=tuple(sync_hidden),
        bucket_bytes=None if bucket_bytes is None else float(bucket_bytes),
    )


def _bucketed_stage_sync(term, compute, backward_total):
    """Wait-free bucketed sync walk for one replicated stage's round.

    A round of the stage runs one minibatch per replica: ``compute``
    seconds of forward+backward, the backward portion ``backward_total``
    at the tail.  Each stream bucket's collective (``term.buckets``, from
    :func:`repro.sim.network.stage_terms`) fires as soon as its last
    gradient exists (``ready_fraction`` of the backward elapsed) and the
    per-stage sync channel is free; buckets serialize on that channel in
    firing order.  The BPTT-deferred payload only exists once backward
    ends, so it is priced strictly after both the compute and the last
    stream bucket — the reason deferred kinds stay fully exposed no
    matter the bucket size.

    Returns ``(round_time, exposed, total_sync)`` in seconds per round:
    the round's wall-clock, the sync share extending it past its compute,
    and the summed duration of every collective.  Mirrors the event
    engine's ``_execute_update`` walk with all round members collapsed
    onto one canonical timeline.
    """
    forward = compute - backward_total
    t = 0.0
    total = 0.0
    for dur, ready_fraction in term.buckets:
        ready = forward + ready_fraction * backward_total
        t = (ready if ready > t else t) + dur
        total += dur
    blocked = term.deferred
    round_time = (t if t > compute else compute) + blocked
    return round_time, round_time - compute, total + blocked
