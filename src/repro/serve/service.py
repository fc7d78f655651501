"""The planner service: normalized queries, plan cache, warm-started solves.

PipeDream's partitioner is meant to be re-run for every (profile, topology,
memory cap, precision) configuration — re-planning is what makes the
approach practical at scale — so this module packages it as a long-lived
query answerer.  Three reuse layers stack, all value-transparent (a served
answer is bitwise identical to a cold :meth:`PipeDreamOptimizer.solve`):

1. **Canonical plan cache** — requests are normalized to a canonical key
   ``(profile digest, topology signature, num_workers, memory limit,
   solver options)`` before anything runs, so syntactically different but
   semantically equal requests (``{"model": "vgg16"}`` vs. the same
   profile inlined as JSON; precision via flag vs. pre-converted bytes;
   two memory caps that cannot bind, see
   :func:`~repro.core.partition.canonical_spec_key`) hit one bounded LRU
   entry.  Precision is part of the key through the digest: converting
   element widths changes the profile bytes and hence the digest.
   Identical misses in flight at once are answered by one solve.
2. **Warm-started solves** — cache misses solve with a
   :class:`~repro.core.partition.SolverContext` drawn from a per-profile
   pool, reusing level tables, bound matrices, comm tables, and suffix-DP
   rows across queries that differ in worker count, cap, or options.
3. **Batched execution** — :meth:`PlannerService.batch` groups a mixed
   request list by profile digest so each group runs against hot solver
   and evaluator tables, then restores the caller's order.

Everything here is stdlib + the repo's own modules; the HTTP layer lives
in :mod:`repro.serve.server` and clients in :mod:`repro.serve.client`.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.partition import (
    PipeDreamOptimizer,
    SolverContext,
    SolverContextPool,
    canonical_spec_key,
    eval_tables_stats,
)
from repro.core.profile import PRECISION_BYTES, ModelProfile
from repro.core.spec import (
    FIELDS,
    LEVEL_FIELDS,
    PLAN_FIELDS,
    REQUEST_FIELDS,
    SIM_FIELDS,
    SWEEP_OPTIONS,
    TOPOLOGY_KEYS,
    PlanSpec,
    SimSpec,
    check_scenario,
)
from repro.core.topology import CLUSTERS, Topology, TopologyLevel
from repro.utils.lru import LRUCache

#: Slots one :meth:`PlannerService.batch` call may carry.
MAX_BATCH_REQUESTS = 1024

#: A level's field values, in :data:`~repro.core.spec.LEVEL_FIELDS` order.
_level_values = attrgetter(*LEVEL_FIELDS)


class RequestError(ValueError):
    """A malformed or unsatisfiable request (HTTP 400, not a server bug)."""

    #: The HTTP status the server answers with.
    status = 400


class RequestTooLarge(RequestError):
    """A request over a fixed size limit (HTTP 413)."""

    status = 413


def _read(request: Dict[str, Any], *names: str) -> List[Any]:
    """``request``'s fields ``names``, each read through its
    :data:`~repro.core.spec.FIELDS` row (absent or null = the default): a
    value the row refuses is the client's :class:`RequestError`, never a
    500 from deep in the solver."""
    try:
        return [FIELDS[name].read(request.get(name)) for name in names]
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def _require_object(request: Any, allowed_keys: Any,
                    what: str = "request") -> None:
    """Strict schema: a JSON object with no field outside ``allowed_keys``."""
    if not isinstance(request, dict):
        raise RequestError(f"{what} must be a JSON object")
    unknown = set(request).difference(allowed_keys)
    if unknown:
        raise RequestError(f"unknown {what} fields: {sorted(unknown)}")


def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    """JSON form of a topology (inverse of :func:`topology_from_dict`)."""
    return {"name": topology.name, "compute_scale": topology.compute_scale,
            "levels": [dict(zip(LEVEL_FIELDS, _level_values(level)))
                       for level in topology.levels]}


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """The topology of its JSON form.  A key outside the schema, at the
    topology or at a level, is a :class:`RequestError`; so is a value its
    field row refuses."""
    _require_object(data, TOPOLOGY_KEYS, "topology")
    levels = data.get("levels")
    if not isinstance(levels, list):
        raise RequestError(f"bad levels {levels!r}: expected a list")
    for level in levels:
        _require_object(level, LEVEL_FIELDS, "level")
    return Topology(
        str(data.get("name", "request")),
        [TopologyLevel(*_read(level, *LEVEL_FIELDS)) for level in levels],
        compute_scale=_read(data, "compute_scale")[0],
    )


def _request_topology(request: Dict[str, Any]) -> Topology:
    """The inline ``topology`` of a request, else its named ``cluster``."""
    if "topology" in request:
        try:
            return topology_from_dict(request["topology"])
        except ValueError as exc:
            raise RequestError(f"bad topology: {exc}") from exc
    cluster, servers = _read(request, "cluster", "servers")
    try:
        return CLUSTERS[cluster](servers)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


def _topology_signature(topology: Topology) -> tuple:
    """The value identity of a topology: levels + compute scale, not name."""
    return topology.compute_scale, tuple(map(_level_values, topology.levels))


@dataclass(frozen=True)
class NormalizedQuery:
    """A plan request reduced to canonical form.

    ``key`` is the plan-cache key: every field that can change the solver's
    answer, by value.  Two requests with equal keys are the same query no
    matter how they were phrased.
    """

    profile: ModelProfile
    topology: Topology
    num_workers: int
    spec: PlanSpec
    key: tuple

    @property
    def memory_limit_bytes(self) -> Optional[float]:
        return self.spec.memory_limit_bytes


def normalize_plan_request(request: Dict[str, Any]) -> NormalizedQuery:
    """Resolve a JSON request into a :class:`NormalizedQuery`.

    The schema is strict (unknown keys are rejected) so that junk fields
    cannot split the cache; all resolution errors surface as
    :class:`RequestError` with a client-actionable message.
    """
    _require_object(request, REQUEST_FIELDS["plan"])
    precision, profile, num_workers = _read(
        request, "precision", "profile", "num_workers")
    if ("model" in request) == ("profile" in request):
        raise RequestError("exactly one of 'model' or 'profile' is required")
    if profile is not None:
        try:
            profile = ModelProfile.from_dict(profile)
        except (KeyError, TypeError, ValueError) as exc:
            raise RequestError(f"bad profile: {exc}") from exc
        target_bytes = PRECISION_BYTES[precision]
        if "precision" in request and profile.bytes_per_element != target_bytes:
            profile = profile.with_precision(target_bytes)
    else:
        # Imported here: the analytic profiler is the one serve dependency
        # with model tables behind it, and tests stub it.
        from repro.profiler import analytic_profile

        model, device = _read(request, "model", "device")
        profile = analytic_profile(
            model, device=device, bytes_per_element=PRECISION_BYTES[precision])

    if "topology" in request and "cluster" in request:
        raise RequestError("give either 'topology' or 'cluster', not both")
    topology = _request_topology(request)
    if num_workers is None:
        num_workers = topology.total_workers
    try:
        solve_topology = (
            topology
            if num_workers == topology.total_workers
            else topology.subset(num_workers)
        )
        spec = PlanSpec(**dict(zip(PLAN_FIELDS, _read(request, *PLAN_FIELDS))))
    except ValueError as exc:
        raise RequestError(str(exc)) from exc

    # The canonical identity of the query.  The profile digest already
    # encodes precision (element width changes the serialized bytes); the
    # topology enters by value, so a named cluster and its inline JSON
    # twin are the same query; so are two caps that cannot bind.
    key = (
        profile.digest(), _topology_signature(solve_topology), num_workers,
    ) + canonical_spec_key(spec, profile, num_workers)
    return NormalizedQuery(profile, solve_topology, num_workers, spec, key)


def normalize_simulate_request(
        request: Dict[str, Any]) -> Tuple[NormalizedQuery, SimSpec]:
    """A simulate request as its plan query and its :class:`SimSpec`; a
    plan field the strategy would not read is a :class:`RequestError`
    (:func:`~repro.core.spec.check_scenario`)."""
    _require_object(request, REQUEST_FIELDS["simulate"])
    query = normalize_plan_request(
        {k: v for k, v in request.items() if k not in SIM_FIELDS})
    try:
        sim = SimSpec(*_read(request, *SIM_FIELDS))
        check_scenario(query.spec, sim)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    return query, sim


def _opt_in_fields(spec: PlanSpec, stages: Sequence[Any]) -> Dict[str, Any]:
    """Per-stage recompute / tensor-parallel columns of a served plan.

    Each is present only when the request opted into that axis, so the
    payloads of requests that did not are unchanged.
    """
    fields: Dict[str, Any] = {}
    if spec.recompute is not None:
        fields["stage_recompute"] = [bool(s.recompute) for s in stages]
    if spec.tp_degrees is not None:
        fields["stage_tp_degrees"] = [s.tp_degree for s in stages]
    return fields


class PlannerService:
    """A long-lived plan/simulate/sweep query answerer.

    Args:
        plan_cache_size: entries in the canonical response cache.  ``0``
            disables response caching entirely (every request recomputes)
            — the perf harness's cold path.
        context_capacity: distinct profiles whose
            :class:`~repro.core.partition.SolverContext` is kept warm.
        warm_start: when False, solves run cold (no shared context).  The
            plan cache still applies; disable both for a fully cold
            service.

    Thread-safe: the caches are internally locked, solves sharing a
    context store equal values (see
    :class:`~repro.core.partition.SolverContext`), and the counters and
    the table of solves in flight take the service lock.  Correctness
    under concurrent clients is asserted by ``tests/test_serve.py``.
    """

    def __init__(
        self,
        plan_cache_size: int = 512,
        context_capacity: int = 16,
        warm_start: bool = True,
    ):
        self.plan_cache = LRUCache(plan_cache_size, name="plan_cache")
        self.contexts = SolverContextPool(context_capacity)
        self.warm_start = warm_start
        self._lock = threading.Lock()
        self._requests = {"plan": 0, "simulate": 0, "sweep": 0, "batch": 0}
        #: canonical key -> the solve answering it right now
        self._inflight: Dict[tuple, Future] = {}
        self._coalesced = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _count(self, endpoint: str) -> None:
        with self._lock:
            self._requests[endpoint] += 1

    def _context_for(self, profile: ModelProfile) -> Optional[SolverContext]:
        if not self.warm_start:
            return None
        return self.contexts.get(profile)

    def _optimizer(self, query: NormalizedQuery) -> PipeDreamOptimizer:
        return PipeDreamOptimizer(
            query.profile, query.topology, **query.spec.options(),
            context=self._context_for(query.profile),
        )

    def _plan_normalized(self, query: NormalizedQuery) -> Dict[str, Any]:
        """The plan of ``query``: from the cache, from an identical solve
        already in flight (single-flight: N concurrent misses on one
        canonical key run one solve and share its payload, or its error),
        or from a solve of its own — the only reply with ``cached`` false.
        """
        key = ("plan", query.key)
        with self._lock:
            payload = self.plan_cache.get(key)
            flight = None if payload is not None else self._inflight.get(key)
            solving = payload is None and flight is None
            if solving:
                self._inflight[key] = flight = Future()
            elif flight is not None:
                self._coalesced += 1
        if solving:
            try:
                payload = self._solve(query)
                # Stored before the flight leaves the table, so a request
                # that finds no flight finds the plan.
                self.plan_cache.put(key, payload)
                flight.set_result(payload)
            except BaseException as exc:
                flight.set_exception(exc)
                raise
            finally:
                with self._lock:
                    del self._inflight[key]
        elif flight is not None:
            payload = flight.result()
        # Caps that cannot bind share one entry; each reply echoes its own.
        return dict(payload, memory_limit_bytes=query.memory_limit_bytes,
                    cached=not solving)

    def _solve(self, query: NormalizedQuery) -> Dict[str, Any]:
        try:
            result = self._optimizer(query).solve(query.num_workers)
        except RuntimeError as exc:  # infeasible (e.g. memory cap too tight)
            raise RequestError(str(exc)) from exc
        payload = {
            "stages": [[s.start, s.stop, s.replicas] for s in result.stages],
            "config": result.config_string,
            "num_workers": result.num_workers,
            "slowest_stage_time": result.slowest_stage_time,
            "memory_bytes": list(result.memory_bytes),
            "memory_limit_bytes": result.memory_limit_bytes,
            "solve_seconds": result.solve_seconds,
        }
        payload.update(_opt_in_fields(query.spec, result.stages))
        return payload

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def plan(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one plan query (see :func:`normalize_plan_request`)."""
        self._count("plan")
        return self._plan_normalized(normalize_plan_request(request))

    def simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Plan-then-simulate one configuration.

        Accepts every plan field plus the :class:`~repro.core.spec.SimSpec`
        fields ``strategy``, ``minibatches`` (literal for every strategy)
        and ``schedule_family``; a plan field the strategy would not read
        is a 400 (:func:`~repro.core.spec.check_scenario`).  The pipedream
        strategy reuses the service's warm optimizer, so repeated
        simulations of one profile re-solve from hot tables.
        """
        self._count("simulate")
        query, sim = normalize_simulate_request(request)
        cache_key = ("simulate", query.key, sim.key())
        cached = self.plan_cache.get(cache_key)
        if cached is not None:
            return dict(cached, cached=True)

        # Imported lazily so importing the serve package stays cheap.
        from repro.sim import simulate_strategy

        # The (cheap, warm-started) optimizer carries the query's spec; a
        # strategy that does not plan reads its ``bucket_bytes`` only.
        result = simulate_strategy(query.profile, query.topology, sim,
                                   optimizer=self._optimizer(query))
        payload = {
            "strategy": result.strategy,
            "config": result.config,
            "num_workers": result.num_workers,
            "throughput": result.throughput,
            "samples_per_second": result.samples_per_second,
            "communication_overhead": result.communication_overhead,
            "bytes_per_sample": result.bytes_per_sample,
            "memory_per_worker": list(result.memory_per_worker),
            "stages": [[s.start, s.stop, s.replicas] for s in result.stages],
        }
        payload.update(_opt_in_fields(query.spec, result.stages))
        self.plan_cache.put(cache_key, payload)
        return dict(payload, cached=False)

    def sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run a figure-12-style grid and return its records.

        Mirrors the CLI ``sweep`` subcommand: the grid runs in-process, and
        its cells thread the service's context pool so per-cell solves are
        warm-started.  A client does not size the server's pool: no
        request field forks the server.
        """
        self._count("sweep")
        _require_object(request, REQUEST_FIELDS["sweep"])
        models, counts = _read(request, "models", "counts")
        topology = _request_topology(request)
        options = dict(zip(SWEEP_OPTIONS, _read(request, *SWEEP_OPTIONS)))

        from repro.sim import SweepError, run_sweep

        try:
            records = run_sweep(
                models, topology, counts, **options,
                contexts=self.contexts if self.warm_start else None)
        # A cell that cannot plan (e.g. a memory cap too tight) is the
        # request's fault; the message names every failed cell.
        except (KeyError, TypeError, ValueError, SweepError) as exc:
            raise RequestError(str(exc)) from exc
        return {"records": [dataclasses.asdict(r) for r in records]}

    def batch(self, requests: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Answer many plan requests, grouped by profile for table reuse.

        Requests sharing a profile digest run back to back against the
        same hot solver context (and evaluator tables), then results are
        returned in the caller's order.  Per-request failures come back
        in-slot as ``{"error": ...}`` instead of failing the batch.
        """
        self._count("batch")
        if not isinstance(requests, (list, tuple)):
            raise RequestError("'requests' must be a list")
        if len(requests) > MAX_BATCH_REQUESTS:
            raise RequestTooLarge(
                f"a batch carries at most {MAX_BATCH_REQUESTS} requests, "
                f"got {len(requests)}")
        normalized: List[Tuple[int, Any]] = []
        for index, request in enumerate(requests):
            try:
                normalized.append((index, normalize_plan_request(request)))
            except RequestError as exc:
                normalized.append((index, exc))
        results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        solvable = [
            (index, query) for index, query in normalized
            if isinstance(query, NormalizedQuery)
        ]
        # Group by digest (stable within a group: first appearance wins),
        # so each profile's tables are built once per batch, not per slot.
        order: Dict[str, int] = {}
        for index, query in solvable:
            order.setdefault(query.profile.digest(), len(order))
        solvable.sort(key=lambda item: (order[item[1].profile.digest()], item[0]))
        for index, query in solvable:
            try:
                results[index] = self._plan_normalized(query)
            except RequestError as exc:
                results[index] = {"error": str(exc)}
        for index, query in normalized:
            if isinstance(query, RequestError):
                results[index] = {"error": str(query)}
        return results  # type: ignore[return-value]

    def stats(self) -> Dict[str, Any]:
        """Requests per endpoint, plan requests that waited on an
        identical solve in flight (``coalesced``), and every reuse
        layer's hit/miss stats."""
        with self._lock:
            requests = dict(self._requests)
            coalesced = self._coalesced
        return {
            "requests": requests,
            "coalesced": coalesced,
            "warm_start": self.warm_start,
            "plan_cache": self.plan_cache.stats(),
            "solver_contexts": self.contexts.stats(),
            "eval_tables": eval_tables_stats(),
        }
