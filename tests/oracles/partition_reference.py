"""Scalar reference twins of the planner's two dynamic programs.

:class:`ReferenceOptimizer` is :class:`~repro.core.partition.PipeDreamOptimizer`
with both DPs replaced by the loop nests the numpy formulations were
derived from: the five-deep level DP (:meth:`_solve_for`, every span of
every level — production keeps only row 0 of the top one), the suffix DP
over ``(m, j, k, mp, t)`` (:meth:`_solve_refined_dp`, every plane
recomputed per cell) and its exhaustive collective tables, degree 1
included (:meth:`_refined_tp_tables`).  They spell the
§3.1 stage-time formula term by term in python floats, so the tier-1
suites assert *bitwise* agreement — same stages, same bottleneck time —
between the production class and this one.  Nothing under ``src/``
imports this module.

The bodies were moved here unchanged from ``core/partition.py``; the
subclass only overrides those dispatch points and tags its own cache
namespace, so a shared :class:`~repro.core.partition.SolverContext` can
never hand array-shaped level tables to the dict-shaped ones below.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.topology import Topology
from repro.sim.network import Placement, ring_cost_factors


def allreduce_cost_factors(placement: Placement,
                           workers: Sequence[int]) -> Tuple[float, float]:
    """``(coeff, lat)`` of a ring all_reduce over the group ``workers``,
    walked from the group itself (production prices its array-built ring
    sizes through :func:`~repro.sim.network.ring_cost_factors`).  A group
    of at most one worker is free."""
    if len(workers) <= 1:
        return 0.0, 0.0
    return ring_cost_factors(placement.topology, placement.ring_sizes(workers))


class ReferenceOptimizer(PipeDreamOptimizer):
    """The scalar oracle: same constructor, same ``solve()``, loop-nest DPs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cache_ns = self._cache_ns + ("reference",)
        self._bucket_table_cache: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    # Scalar range helpers (reads of the one range table)
    # ------------------------------------------------------------------
    def _bucket_count(self, i: int, j: int) -> int:
        """Streamable collectives per round for span i..j inclusive."""
        if self.bucket_bytes is None:
            return 1
        if self._bucket_table_cache is None:
            from repro.comm.bucketing import stream_bucket_count_table

            self._bucket_table_cache = stream_bucket_count_table(
                self._device_profile, self.bucket_bytes
            )
        return self._bucket_table_cache[i][j]

    def _range(self, column: str, i: int, j: int):
        """Sum of the range table's ``column`` over layers i..j inclusive
        (the optimizer's device-adjusted table)."""
        prefix = getattr(self._table, column)
        return prefix[j + 1] - prefix[i]

    def _time(self, i: int, j: int) -> float:
        """Sum of T_l for layers i..j inclusive."""
        return self._range("compute", i, j)

    def _backward_sum(self, i: int, j: int) -> float:
        """Backward-pass seconds of layers i..j inclusive (device-adjusted)."""
        return self._range("backward", i, j)

    def _weights(self, i: int, j: int) -> float:
        return self._range("weights", i, j)

    def _recurrent_weights(self, i: int, j: int) -> float:
        return self._range("deferred", i, j)

    def _activation_sum(self, i: int, j: int) -> float:
        """Summed activation stash of layers i..j inclusive (one minibatch)."""
        return self._range("acts", i, j)

    def _boundary_acts(self, j: int) -> float:
        """Input-boundary activation bytes of a stage starting at layer ``j``
        (what a recompute-on stage stashes per in-flight minibatch)."""
        return self._table.in_bytes[j]

    def _shard_time(self, i: int, j: int) -> float:
        """Shardable compute seconds of layers i..j inclusive."""
        return self._range("shard_compute", i, j)

    def _shard_backward(self, i: int, j: int) -> float:
        return self._range("shard_backward", i, j)

    def _shard_weights(self, i: int, j: int) -> float:
        return self._range("shard_weights", i, j)

    def _shard_acts(self, i: int, j: int) -> float:
        return self._range("shard_acts", i, j)

    def _memory_ok(self, i: int, j: int) -> bool:
        """Phase-1 feasibility of span i..j: the shared-kernel bound."""
        if self.memory_limit_bytes is None:
            return True
        return self._bound_matrix()[i][j] <= self.memory_limit_bytes

    def _refined_stage_time(
        self, j: int, k: int, mp: int, m: int, coeff: float, lat: float,
        limit: float,
    ) -> float:
        """Leading-stage time for the suffix DP (inf when masked out).

        ``coeff`` is the placement-exact all_reduce seconds-per-byte of
        the group this (suffix ``m``, replicas ``mp``) stage occupies;
        ``lat`` the per-collective setup latency that group pays, charged
        once per stream bucket plus once for the deferred payload.

        Under ``recompute="auto"`` the stage prefers stash-everything
        whenever it fits (so generous limits stay bitwise identical to
        the recompute-free solver) and falls back to checkpointing —
        boundary-only stash, one extra forward of compute — only when
        stash-everything busts the cap.  :meth:`_reconstruct_refined`
        re-derives the same decision from the same arithmetic.
        """
        if mp > 1 and not self.allow_replication:
            return math.inf
        versions = -(-m // mp)  # exact 1F1B depth: ceil(m / m')
        cost = self._stage_memory_cost(
            self._weights(j, k), self._recurrent_weights(j, k),
            self._activation_sum(j, k), versions, mp,
        )
        stage_compute = self._time(j, k)
        if cost > limit:
            if not self._recompute_auto:
                return math.inf
            cost_on = self._stage_memory_cost(
                self._weights(j, k), self._recurrent_weights(j, k),
                self._activation_sum(j, k), versions, mp,
                recompute=True,
                boundary_activation_bytes=self._boundary_acts(j),
            )
            if cost_on > limit:
                return math.inf
            # Checkpointing re-runs the stage's forward during backward:
            # one extra forward = compute minus the backward share.
            stage_compute = stage_compute + (
                stage_compute - self._backward_sum(j, k)
            )
        compute_term = stage_compute / mp
        if mp == 1:
            return compute_term
        weights = self._weights(j, k)
        deferred = self._recurrent_weights(j, k)
        overlappable = (weights - deferred) * coeff / mp
        non_overlappable = deferred * coeff / mp
        if lat > 0.0:
            if weights - deferred > 0:
                overlappable = (
                    overlappable + lat * self._bucket_count(j, k) / mp
                )
            if deferred > 0:
                non_overlappable = non_overlappable + lat / mp
        return max(compute_term, overlappable) + non_overlappable

    def _refined_stage_time_tp(
        self, j: int, k: int, mp: int, t: int, m: int,
        dp_coeff: float, dp_lat: float, tp_coeff: float, tp_lat: float,
        limit: float,
    ) -> float:
        """Leading-stage time of a ``(replicas=mp/t, tp_degree=t)`` cell.

        The stage's ``mp`` physical workers split into ``r = mp/t``
        replicas of ``t`` shards.  Relative to :meth:`_refined_stage_time`:

        - the shardable compute share divides by ``t`` (the rest is
          replicated work every shard repeats);
        - every minibatch pays two intra-stage collectives on the slowest
          shard group (``tp_coeff``/``tp_lat``): the forward allgather of
          the stage's *output* boundary activations — charged for the last
          stage too, so tp never degenerates into free compute division —
          and the backward reduce-scatter of the *input* boundary (zero at
          the input stage, which reads training data);
        - the data-parallel sync streams the *sharded* eager payload over
          the strided representative group (``dp_coeff``/``dp_lat``),
          amortized over the round of ``r`` minibatches; deferred (BPTT)
          weights are unshardable by construction and sync in full;
        - the memory mask evaluates the shared kernel with the shard
          divisor at the exact depth ``ceil(m/mp)`` (physical workers
          downstream over physical workers held — :func:`warmup_count`'s
          tp-aware generalization) and ``r`` logical replicas.
        """
        r = mp // t
        if r > 1 and not self.allow_replication:
            return math.inf
        versions = -(-m // mp)  # exact 1F1B depth over physical workers
        shard_w = self._shard_weights(j, k)
        shard_a = self._shard_acts(j, k)
        cost = self._stage_memory_cost(
            self._weights(j, k), self._recurrent_weights(j, k),
            self._activation_sum(j, k), versions, r,
            tp_degree=t, shardable_weight_bytes=shard_w,
            shardable_activation_bytes=shard_a,
        )
        st = self._shard_time(j, k)
        stage_compute = self._time(j, k) - st + st / t
        if cost > limit:
            if not self._recompute_auto:
                return math.inf
            cost_on = self._stage_memory_cost(
                self._weights(j, k), self._recurrent_weights(j, k),
                self._activation_sum(j, k), versions, r,
                recompute=True,
                boundary_activation_bytes=self._boundary_acts(j),
                tp_degree=t, shardable_weight_bytes=shard_w,
                shardable_activation_bytes=shard_a,
            )
            if cost_on > limit:
                return math.inf
            # Checkpointing replays the *sharded* forward during backward.
            sb = self._shard_backward(j, k)
            sharded_backward = self._backward_sum(j, k) - sb + sb / t
            stage_compute = stage_compute + (stage_compute - sharded_backward)
        out_act = self.profile.activation_bytes(k)
        in_act = self._boundary_acts(j)
        out_term = out_act * tp_coeff + (tp_lat if out_act > 0 else 0.0)
        in_term = in_act * tp_coeff + (tp_lat if in_act > 0 else 0.0)
        stage_total = stage_compute + (out_term + in_term)
        compute_term = stage_total / r
        if r == 1:
            return compute_term
        weights = self._weights(j, k)
        deferred = self._recurrent_weights(j, k)
        stream = (weights - deferred) - shard_w + shard_w / t
        overlappable = stream * dp_coeff / r
        non_overlappable = deferred * dp_coeff / r
        if dp_lat > 0.0:
            if stream > 0:
                overlappable = overlappable + dp_lat / r
            if deferred > 0:
                non_overlappable = non_overlappable + dp_lat / r
        return max(compute_term, overlappable) + non_overlappable

    def _refined_tp_tables(self, topology: Topology, t: int):
        """The degree-``t`` collective factors with every group of every
        ``(m, mp)`` cell priced from scratch (production prices each
        distinct group once and keeps a running max).  At ``t = 1`` the
        replica group is the contiguous span and every shard group one
        worker."""
        placement = Placement(topology)
        W = topology.total_workers
        dp_c = [[0.0] * (m + 1) for m in range(W + 1)]
        dp_l = [[0.0] * (m + 1) for m in range(W + 1)]
        tp_c = [[0.0] * (m + 1) for m in range(W + 1)]
        tp_l = [[0.0] * (m + 1) for m in range(W + 1)]
        for m in range(t, W + 1):
            first = W - m
            for mp in range(t, m + 1, t):
                r = mp // t
                if r > 1:
                    reps = [first + q * t for q in range(r)]
                    dp_c[m][mp], dp_l[m][mp] = allreduce_cost_factors(
                        placement, reps
                    )
                worst_c = worst_l = 0.0
                for q in range(r):
                    shard_group = list(
                        range(first + q * t, first + (q + 1) * t)
                    )
                    c, l = allreduce_cost_factors(placement, shard_group)
                    if c > worst_c:
                        worst_c = c
                    if l > worst_l:
                        worst_l = l
                tp_c[m][mp] = worst_c
                tp_l[m][mp] = worst_l
        return dp_c, dp_l, tp_c, tp_l

    def _solve_refined_dp(
        self, topology: Topology, link_bw, tables
    ) -> Optional[List[Stage]]:
        """Scalar suffix DP (the oracle the vectorized twin must match)."""
        n = self._n
        W = topology.total_workers
        limit = self.memory_limit_bytes
        inf = math.inf
        coeffs, lats = tables[1][0], tables[1][1]
        # R[m][j]: bottleneck of layers j..n-1 on exactly m workers.  The
        # base R[0][n] = 0 closes a plan that used every worker; leftover
        # workers (R[m][n], m > 0) stay infeasible, as in the level DP.
        R = [[inf] * (n + 1) for _ in range(W + 1)]
        ptr_k = [[-1] * n for _ in range(W + 1)]
        ptr_mp = [[-1] * n for _ in range(W + 1)]
        ptr_tp = [[1] * n for _ in range(W + 1)]
        R[0][n] = 0.0
        row_cache = None if self.context is None else self.context.refined_rows
        row_keys = (
            self._refined_row_keys(W, link_bw, tables)
            if row_cache is not None
            else None
        )
        for m in range(1, W + 1):
            if row_cache is not None:
                hit = row_cache.get(row_keys[m])
                if hit is not None:
                    R[m] = list(hit[0])
                    ptr_k[m] = list(hit[1])
                    ptr_mp[m] = list(hit[2])
                    ptr_tp[m] = list(hit[3])
                    self.context._bump("row_hits")
                    continue
            for j in range(n - 1, -1, -1):
                best = inf
                best_k = -1
                best_mp = -1
                best_tp = 1
                for k in range(j, n):
                    act = self.profile.activation_bytes(k)
                    for mp in range(1, m + 1):
                        rest = R[m - mp][k + 1]
                        if k == n - 1:
                            boundary = 0.0
                        else:
                            # Next stage starts at worker W-m+mp; when
                            # mp == m there is no next worker and ``rest``
                            # is already inf, so the clamp is value-free.
                            boundary = (
                                2.0 * act / link_bw[min(W - m + mp, W - 1)]
                            )
                        stage_t = self._refined_stage_time(
                            j, k, mp, m, coeffs[m][mp], lats[m][mp], limit
                        )
                        candidate = max(stage_t, boundary, rest)
                        if candidate < best:
                            best = candidate
                            best_k = k
                            best_mp = mp
                            best_tp = 1
                        # (k, mp, t)-lexicographic tie-break: the
                        # two-axis cell above went first, so tp only wins
                        # a cell by being strictly better.
                        for t in self._tp_options[1:]:
                            if mp % t:
                                continue
                            dp_c, dp_l, tp_c, tp_l = tables[t]
                            stage_t = self._refined_stage_time_tp(
                                j, k, mp, t, m, dp_c[m][mp], dp_l[m][mp],
                                tp_c[m][mp], tp_l[m][mp], limit,
                            )
                            candidate = max(stage_t, boundary, rest)
                            if candidate < best:
                                best = candidate
                                best_k = k
                                best_mp = mp
                                best_tp = t
                R[m][j] = best
                ptr_k[m][j] = best_k
                ptr_mp[m][j] = best_mp
                ptr_tp[m][j] = best_tp
            if row_cache is not None:
                row_cache[row_keys[m]] = (
                    list(R[m]), list(ptr_k[m]), list(ptr_mp[m]),
                    list(ptr_tp[m]),
                )
                self.context._bump("row_misses")
        if not math.isfinite(R[W][0]):
            return None
        return self._reconstruct_refined(ptr_k, ptr_mp, W, ptr_tp)

    def _solve_for(self, topology: Topology) -> Optional[List[Stage]]:
        """Scalar level-by-level DP (the oracle the vectorized path must
        match); returns the stages, ``None`` when nothing is feasible."""
        n = self._n

        # A[k][(i, j, m)] -> (bottleneck_time, backpointer)
        # backpointer: None for a single stage covering i..j, else (s, m')
        # meaning sub-pipeline i..s on m - m' components plus stage s+1..j
        # on m' components.
        tables: List[Dict[Tuple[int, int, int], Tuple[float, Optional[Tuple[int, int]]]]] = []

        #: Level-1 cells where a tp degree beat the two-axis stage time
        #: (strict '<', degrees ascending — same tie-break as the
        #: vectorized fold); consulted during reconstruction.
        tp_choices: Dict[Tuple[int, int, int], int] = {}
        prev_capacity = 1  # m_{k-1}: components of the level below
        prev_workers = 1  # workers inside one level-(k-1) component
        for k, level in enumerate(topology.levels, start=1):
            mk, bandwidth = level.count, level.bandwidth
            table: Dict[Tuple[int, int, int], Tuple[float, Optional[Tuple[int, int]]]] = {}

            stage_cache: Dict[Tuple[int, int, int], float] = {}
            allreduce_bandwidth = level.allreduce_bandwidth
            allreduce_latency = level.allreduce_latency

            def stage_time(i: int, j: int, m: int) -> float:
                """T^k(i→j, m): single stage replicated over m components."""
                cached = stage_cache.get((i, j, m))
                if cached is not None:
                    return cached
                result = self._stage_time_uncached(
                    tables, k, prev_capacity, prev_workers,
                    allreduce_bandwidth, allreduce_latency, i, j, m,
                )
                if k == 1:
                    # The tp axis shards level-1 (leaf) stages only: upper
                    # levels replicate whatever the leaf chose.
                    for t in self._tp_options[1:]:
                        if m % t:
                            continue
                        tp_val = self._tp_stage_time_level1(
                            i, j, m, t,
                            allreduce_bandwidth, allreduce_latency,
                        )
                        if tp_val < result:
                            result = tp_val
                            tp_choices[(i, j, m)] = t
                stage_cache[(i, j, m)] = result
                return result

            boundaries = [2.0 * self.profile.activation_bytes(s) / bandwidth
                          for s in range(n)]
            for m in range(1, mk + 1):
                for j in range(n):
                    for i in range(j, -1, -1):
                        best = stage_time(i, j, m)
                        best_ptr: Optional[Tuple[int, int]] = None
                        for s in range(i, j):
                            boundary = boundaries[s]
                            for m_prime in range(1, m):
                                left = table.get((i, s, m - m_prime))
                                if left is None:
                                    continue
                                right = stage_cache.get((s + 1, j, m_prime))
                                if right is None:
                                    right = stage_time(s + 1, j, m_prime)
                                candidate = max(left[0], boundary, right)
                                if candidate < best:
                                    best = candidate
                                    best_ptr = (s, m_prime)
                        if best < math.inf:
                            table[(i, j, m)] = (best, best_ptr)
            tables.append(table)
            prev_capacity = mk
            prev_workers *= mk

        top = len(topology.levels)
        final = tables[top - 1].get((0, n - 1, topology.levels[top - 1].count))
        if final is None:
            return None

        return self._reconstruct(tables, topology, top, 0, n - 1,
                                 topology.levels[top - 1].count, tp_choices)

    def _stage_time_uncached(
        self,
        tables: Sequence[Dict],
        k: int,
        prev_capacity: int,
        prev_workers: int,
        allreduce_bandwidth: float,
        allreduce_latency: float,
        i: int,
        j: int,
        m: int,
    ) -> float:
        """T^k(i→j, m) without memoization; see :meth:`solve`.

        The stage spans layers i..j, replicated over ``m`` level-(k-1)
        components (each holding ``prev_workers`` workers internally).  Its
        effective per-minibatch time is the max of

        - the amortized compute rate ``A^{k-1}(i→j, m_{k-1}) / m``, and
        - the level-k ring all_reduce share ``2 (m-1)/m |w| / B_k^ar``,
          amortized over the round of ``m * prev_workers`` minibatches that
          one synchronization covers (replicas synchronize once per
          round-robin sweep, §3.2/§4).

        With a per-collective setup latency α on the level, the stream
        share additionally pays ``α · N / round_size`` (``N`` collectives
        per round — one per gradient bucket, or 1 with fusion off) and the
        deferred share ``α / round_size``; the ``α > 0`` guard keeps the
        default tables bitwise identical to the pre-latency model.

        This is the paper's §3.1 formulation with the communication term
        normalized to once-per-round semantics so the optimizer, the
        discrete-event simulator, and the training runtime share one cost
        model (see DESIGN.md).
        """
        if k == 1:
            compute = self._time(i, j)
        else:
            entry = tables[k - 2].get((i, j, prev_capacity))
            if entry is None:
                return math.inf
            compute = entry[0]
        if m > 1 and not self.allow_replication:
            return math.inf
        if not self._memory_ok(i, j):
            return math.inf
        compute_term = compute / m
        if m == 1:
            return compute_term
        round_size = m * prev_workers
        weights = self._weights(i, j)
        deferred = self._recurrent_weights(i, j)
        ring = 2.0 * (m - 1) / m / allreduce_bandwidth
        overlappable = ring * (weights - deferred) / round_size
        non_overlappable = ring * deferred / round_size
        if allreduce_latency > 0.0:
            if weights - deferred > 0:
                overlappable = (
                    overlappable
                    + allreduce_latency * self._bucket_count(i, j) / round_size
                )
            if deferred > 0:
                non_overlappable = (
                    non_overlappable + allreduce_latency / round_size
                )
        return max(compute_term, overlappable) + non_overlappable

    def _tp_stage_time_level1(
        self, i: int, j: int, m: int, t: int,
        arbw: float, alpha: float,
    ) -> float:
        """T^1(i→j, m) with the ``m`` leaf workers split into ``m/t``
        replicas of ``t`` consecutive shards.

        The level-1 analogue of :meth:`_refined_stage_time_tp`, priced
        with the level's own ring model (both the intra-stage boundary
        collectives and the strided data-parallel sync stay within one
        level-1 component group here, so the flat ring coefficient is the
        level-exact price — the refined pass re-prices cross-level spans
        through the placement).  Replication of a tp'd leaf by upper
        levels keeps the conservative full-payload sync of the two-axis
        model.
        """
        r = m // t
        if r > 1 and not self.allow_replication:
            return math.inf
        if not self._memory_ok(i, j):
            return math.inf
        st = self._shard_time(i, j)
        stage_compute = self._time(i, j) - st + st / t
        ring_t = 2.0 * (t - 1) / t / arbw
        out_act = self.profile.activation_bytes(j)
        in_act = self._boundary_acts(i)
        out_term = out_act * ring_t
        in_term = in_act * ring_t
        if alpha > 0.0:
            if out_act > 0:
                out_term = out_term + alpha
            if in_act > 0:
                in_term = in_term + alpha
        stage_total = stage_compute + (out_term + in_term)
        if r == 1:
            return stage_total / r
        weights = self._weights(i, j)
        deferred = self._recurrent_weights(i, j)
        sw = self._shard_weights(i, j)
        stream = (weights - deferred) - sw + sw / t
        ring_r = 2.0 * (r - 1) / r / arbw
        overlappable = stream * ring_r / r
        non_overlappable = deferred * ring_r / r
        if alpha > 0.0:
            if stream > 0:
                overlappable = (
                    overlappable + alpha * self._bucket_count(i, j) / r
                )
            if deferred > 0:
                non_overlappable = non_overlappable + alpha / r
        return max(stage_total / r, overlappable) + non_overlappable

    def _reconstruct(
        self,
        tables: Sequence[Dict],
        topology: Topology,
        k: int,
        i: int,
        j: int,
        m: int,
        tp_choices: Dict[Tuple[int, int, int], int],
    ) -> List[Stage]:
        """Flatten the nested back-pointer structure into concrete stages.

        Level-1 cells consult ``tp_choices``: a leaf that chose degree
        ``t`` emits ``m/t`` replicas of tp width ``t`` (upper levels then
        multiply replicas only, preserving the shard width)."""
        if k == 0:
            return [Stage(i, j + 1, 1)]
        entry = tables[k - 1][(i, j, m)]
        _, ptr = entry
        if ptr is None:
            if k == 1:
                t = tp_choices.get((i, j, m), 1)
                return [Stage(i, j + 1, m // t, tp_degree=t)]
            # Single level-k stage replicated over m components; expand its
            # internal level-(k-1) pipeline and multiply replica counts.
            prev_capacity = topology.levels[k - 2].count
            inner = self._reconstruct(tables, topology, k - 1, i, j,
                                      prev_capacity, tp_choices)
            return [replace(s, replicas=s.replicas * m) for s in inner]
        s, m_prime = ptr
        left = self._reconstruct(tables, topology, k, i, s, m - m_prime,
                                 tp_choices)
        if k == 1:
            t = tp_choices.get((s + 1, j, m_prime), 1)
            right = [Stage(s + 1, j + 1, m_prime // t, tp_degree=t)]
        else:
            prev_capacity = topology.levels[k - 2].count
            inner = self._reconstruct(tables, topology, k - 1, s + 1, j,
                                      prev_capacity, tp_choices)
            right = [
                replace(st, replicas=st.replicas * m_prime) for st in inner
            ]
        return left + right

