"""Parameter sweeps over (model, cluster scale, strategy) grids.

The evaluation section's figures are weak-scaling sweeps; this module
factors that loop out of the benches into a reusable harness producing
tidy records, with CSV export for downstream analysis.

The sweep decomposes into independent *cells* — one per ``(model,
strategy, precision, plan spec)``, each cell covering every worker count
and planned once per count however many schedule families it is simulated
under.  The cell list runs through one ``map``: the builtin one in-process,
or a process pool's for ``workers > 1``.  Results are reassembled in the
serial iteration order (model, then worker count, then strategy), so
``workers=N`` output is cell-for-cell identical to the in-process run
(asserted by ``tests/test_sweep_parallel.py``).  A failing cell does not
kill the sweep: every other cell completes, and the failures are reported
per cell via :class:`SweepError`, which also carries the surviving cells'
records.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.partition import (
    PipeDreamOptimizer,
    SolverContextPool,
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import PRECISION_BYTES, ModelProfile
from repro.core.schedule import _assign_workers
from repro.core.spec import DEFAULTS, FIELDS, PlanSpec, SimSpec
from repro.core.topology import Topology
from repro.profiler import analytic_profile
from repro.sim.network import Placement, stage_sync_seconds
from repro.sim.strategies import (
    STRATEGIES,
    grid_minibatches,
    run_key,
    simulate_plan,
    simulate_strategy,
    unplanned_stages,
)


@dataclass(frozen=True)
class SweepRecord:
    """One (model, workers, strategy) measurement.

    The three per-stage tuples break the headline numbers down along the
    chosen plan (index = stage): the evaluator's per-stage bottleneck
    seconds, the inter-stage boundary transfer seconds (one entry per
    boundary, empty for single-stage plans), and the §3.3 simulated
    footprint ``pipeline_memory_footprint`` at 1F1B warmup depths.
    ``peak_memory_gb`` stays the strategy driver's own accounting (GPipe,
    for instance, sizes its stash from microbatches, not warmup depth).
    In CSV form tuple columns are ``|``-joined scalars.

    ``precision`` names the element width the cell's profile was built at
    (see ``PRECISION_BYTES``); ``allreduce_seconds`` is the modeled
    hierarchical-ring weight synchronization time per round across the
    plan's replicated stage groups — the figure-12 communication term that
    fp16 halves.
    """

    model: str
    cluster: str
    workers: int
    strategy: str
    config: str
    samples_per_second: float
    communication_overhead: float
    bytes_per_sample: float
    peak_memory_gb: float
    stage_seconds: Tuple[float, ...] = ()
    boundary_seconds: Tuple[float, ...] = ()
    stage_memory_bytes: Tuple[int, ...] = ()
    precision: str = "fp32"
    allreduce_seconds: float = 0.0
    #: Gradient-fusion cap the cell planned and simulated with (``None`` =
    #: one monolithic per-round payload, the pre-bucketing behaviour).
    bucket_bytes: Optional[float] = None
    #: Recovery columns, filled only for rows produced by the elastic
    #: control loop (``repro.runtime.elastic``); zero for ordinary cells.
    detection_latency: float = 0.0
    replan_seconds: float = 0.0
    minibatches_lost: float = 0.0
    #: Planner recompute policy the cell solved under (``None`` = stash
    #: everything, the pre-recompute behaviour; ``"auto"`` = per-stage
    #: checkpointing decision inside the refined DP, live only with a
    #: memory cap) and the schedule family it simulated (``"1f1b"`` or the
    #: backward-split ``"2bp"``).  Both default to the historical axes.
    recompute: Optional[str] = None
    schedule_family: str = "1f1b"
    #: Tensor-parallel degree menu the cell's planner enumerated (``None``
    #: = the two-axis planner, the pre-tp behaviour).  Plans that used a
    #: tp>1 stage show it in ``config`` ("4x2-1").  The CSV exporter drops
    #: this column when every record has the default, so historical CSV
    #: output stays byte-identical.
    tp_degrees: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class SweepFailure:
    """One (model, strategy, precision, bucket) cell that raised during the sweep."""

    model: str
    strategy: str
    error: str
    precision: str = "fp32"
    bucket_bytes: Optional[float] = None
    recompute: Optional[str] = None
    schedule_family: str = "1f1b"

    def __str__(self) -> str:
        extras = []
        if self.bucket_bytes is not None:
            extras.append(f"bucket={self.bucket_bytes}")
        if self.recompute is not None:
            extras.append(f"recompute={self.recompute}")
        if self.schedule_family != "1f1b":
            extras.append(f"family={self.schedule_family}")
        tail = ", " + ", ".join(extras) if extras else ""
        return (f"({self.model}, {self.strategy}, {self.precision}{tail}): "
                f"{self.error}")


class SweepError(RuntimeError):
    """Raised when sweep cells fail; carries the surviving records.

    ``failures`` lists every failed cell (the sweep runs all cells to
    completion before raising); ``records`` holds the results of the cells
    that succeeded, in the usual deterministic order.
    """

    def __init__(self, failures: Sequence[SweepFailure],
                 records: Sequence[SweepRecord]):
        self.failures = list(failures)
        self.records = list(records)
        lines = "; ".join(str(f) for f in failures)
        super().__init__(f"{len(self.failures)} sweep cell(s) failed: {lines}")


def _plan_allreduce_seconds(
    profile: ModelProfile,
    stages: Sequence[Stage],
    topology: Topology,
) -> float:
    """Modeled per-round weight-sync time of a plan's replicated stages.

    Each stage ring-all_reduces its whole weight payload once — at the
    profile's own ``bytes_per_element``, so an fp16 profile pays half the
    fp32 payload — over its leader ring
    (:func:`repro.sim.network.stage_sync_seconds`), and the per-stage times
    add (groups share the hierarchy's links).  An unreplicated stage
    costs 0.0.
    """
    placement = Placement(topology)
    leaders = _assign_workers(stages)
    total = 0.0
    for s, stage in enumerate(stages):
        total += stage_sync_seconds(placement, profile, stage, leaders[s])
    return total


class _Cell(NamedTuple):
    """One sweep cell: what is planned (``spec``), what it runs on, and
    the simulations (``sims``, one per schedule family) of that one plan."""

    model: str
    strategy: str
    precision: str
    spec: PlanSpec
    sims: Tuple[SimSpec, ...]


def _run_cell(
    cell: _Cell,
    topology: Topology,
    worker_counts: Sequence[int],
    device: str,
    contexts: Optional[SolverContextPool] = None,
    runs: Optional[dict] = None,
) -> List[Optional[Tuple[SweepRecord, ...]]]:
    """Run one cell over every worker count.

    Returns one entry per ``worker_counts`` element — the records of
    ``cell.sims``, in order — or ``None`` where the count does not pack
    onto the topology; index-aligned so the caller can interleave cells
    back into serial order.  Module-level (and built from picklable
    arguments) so it crosses a process-pool boundary.

    The precision is applied at the *profile*: the cell's plan, simulation,
    and payload accounting all see ``PRECISION_BYTES[precision]``-wide
    elements (the profile cache is keyed on that width, so fp32 and fp16
    cells never share an entry).

    ``runs`` maps a :func:`~repro.sim.strategies.run_key` to the record
    fields its simulation gave, and the key's ``priced`` part to the
    per-stage breakdown fields: a run another cell already did is read,
    not simulated again.  It holds numbers only, never a ``SimResult``.
    """
    model, strategy, precision, spec, sims = cell
    profile = analytic_profile(
        model, device=device,
        bytes_per_element=PRECISION_BYTES[precision],
    )
    if runs is None:
        runs = {}
    optimizer = None
    if strategy == "pipedream":
        # One optimizer per cell: its memoized level tables are shared by
        # every solve of the worker-count loop.  A shared context extends
        # that reuse across cells — warm-started solves are bitwise
        # identical to cold ones, so records don't change.
        optimizer = PipeDreamOptimizer(
            profile, topology, **spec.options(),
            context=None if contexts is None else contexts.get(profile),
        )
    out: List[Optional[Tuple[SweepRecord, ...]]] = []
    for workers in worker_counts:
        try:
            sub = topology.subset(workers)
        except ValueError:
            out.append(None)
            continue
        if optimizer is not None:
            plan = optimizer.solve(workers)  # once, for every family
            stages = plan.stages
        else:
            plan = None
            stages = unplanned_stages(strategy, profile, workers)
        records = []
        for sim in sims:
            key = run_key(profile, workers, stages, sim, spec.bucket_bytes)
            fields = runs.get(key)
            if fields is None:
                result = (
                    simulate_strategy(profile, sub, sim, spec) if plan is None
                    else simulate_plan(profile, sub, plan, sim,
                                       spec.bucket_bytes))
                if key.priced not in runs:
                    runs[key.priced] = _breakdown(
                        profile, result.stages, sub, spec.bucket_bytes)
                fields = runs[key] = dict(
                    config=result.config,
                    samples_per_second=result.samples_per_second,
                    communication_overhead=result.communication_overhead,
                    bytes_per_sample=result.bytes_per_sample,
                    peak_memory_gb=max(result.memory_per_worker) / 1e9,
                )
            records.append(SweepRecord(
                model=model,
                cluster=topology.name,
                workers=workers,
                strategy=strategy,
                precision=precision,
                bucket_bytes=spec.bucket_bytes,
                recompute=spec.recompute,
                schedule_family=sim.schedule_family,
                tp_degrees=spec.tp_degrees,
                **fields,
                **runs[key.priced],
            ))
        out.append(tuple(records))
    return out


def _breakdown(profile: ModelProfile, stages: Sequence[Stage],
               topology: Topology, bucket_bytes: Optional[float]) -> dict:
    """Per-stage breakdown fields of a simulated plan: the evaluator's
    stage/boundary seconds, the §3.3 per-stage footprint and the modeled
    weight-sync time."""
    details = evaluate_partition_details(
        profile, stages, topology, bucket_bytes=bucket_bytes)
    return dict(
        stage_seconds=details.stage_times,
        boundary_seconds=details.boundary_times,
        stage_memory_bytes=details.memory_bytes,
        allreduce_seconds=_plan_allreduce_seconds(profile, stages, topology),
    )


def _run_cell_guarded(args) -> Tuple[list, Optional[str]]:
    """(records, error): never raises, so one bad cell can't kill a pool."""
    try:
        return _run_cell(*args), None
    except Exception as exc:  # noqa: BLE001 - reported per cell by design
        return [], f"{type(exc).__name__}: {exc}"


def run_sweep(
    models: Sequence[str],
    topology: Topology,
    worker_counts: Sequence[int],
    strategies: Sequence[str] = DEFAULTS["strategies"],
    device: str = DEFAULTS["device"],
    minibatches: int = DEFAULTS["minibatches"],
    workers: int = 1,
    precisions: Sequence[str] = DEFAULTS["precisions"],
    bucket_sizes: Sequence[Optional[float]] = DEFAULTS["bucket_sizes"],
    recomputes: Sequence[Optional[str]] = DEFAULTS["recomputes"],
    schedule_families: Sequence[str] = DEFAULTS["schedule_families"],
    memory_limit_bytes: Optional[float] = None,
    tp_degrees: Optional[Sequence[int]] = None,
    contexts: Optional[SolverContextPool] = None,
) -> List[SweepRecord]:
    """Simulate every combination; skips worker counts that don't pack.

    Each distinct simulation runs once per call: cells whose runs share a
    :func:`~repro.sim.strategies.run_key` — a bucket size on a plan with
    no replicated stage (``mp``, ``gpipe``, straight pipedream plans), a
    schedule family on a data-parallel plan — read the first one's numbers
    instead of simulating again.  Every record is still its own cell's
    (bucket and family columns included) and bitwise what the cell would
    give alone.

    Args:
        minibatches: run length of a pipedream cell; the other strategies
            run :func:`~repro.sim.strategies.grid_minibatches` of it.
        workers: sweep parallelism.  ``1`` (default) runs every cell
            in-process; ``N > 1`` maps the cells over a process pool of
            ``min(N, cells)`` workers.  Pooled cells plan cold and share no
            runs, since a context pool holds locks and does not pickle;
            output order and values are identical either way.
        precisions: element widths to sweep (keys of ``PRECISION_BYTES``).
            The default single-``"fp32"`` axis reproduces the historical
            sweep bit for bit; adding ``"fp16"`` doubles the grid with
            cells planned and simulated on half-width profiles — the
            figure-12 comparison.
        bucket_sizes: gradient-fusion caps to sweep.  The default
            single-``None`` axis keeps the historical monolithic per-round
            payload bit for bit; adding byte caps (e.g. ``25e6``) plans and
            simulates each cell with DDP-style bucketed, backward-overlapped
            weight synchronization — the overlap comparison.
        recomputes: planner recompute policies to sweep.  Only the
            pipedream strategy plans, so the axis applies to pipedream
            cells alone; other strategies keep one cell.
        schedule_families: pipeline schedule families to sweep (``"1f1b"``
            and/or ``"2bp"``), again a pipedream-only axis — and an axis
            of the *simulation*: a pipedream cell is planned once per
            worker count and simulated under each family.  The default
            single-``"1f1b"`` axis reproduces the historical sweep bit for
            bit.
        memory_limit_bytes, tp_degrees: handed to every pipedream cell's
            planner.  Together with one ``bucket_sizes`` and one
            ``recomputes`` entry they form the cell's
            :class:`~repro.core.spec.PlanSpec`; every plan and simulation
            spec is built before the first cell runs, so an invalid
            combination fails up front.
        contexts: optional :class:`SolverContextPool` whose warm-started
            solver tables the cells read and extend (the planner service
            threads its pool through here).  In-process runs only: pooled
            cells plan cold.  Warm starts are value-transparent, so
            records are unchanged.
    """
    # The axes with a closed set of values, checked by their table rows.
    for name, value in (("strategies", tuple(strategies)),
                        ("precisions", tuple(precisions))):
        FIELDS[name].read(value)
    worker_counts = list(worker_counts)
    # Every planned cell's spec, built (and so validated) before any cell
    # runs.  Only pipedream plans: the other strategies read the bucket
    # size alone and keep one cell per (precision, bucket).
    planned = {
        (bucket, policy): PlanSpec(
            memory_limit_bytes=memory_limit_bytes, bucket_bytes=bucket,
            recompute=policy, tp_degrees=tp_degrees)
        for bucket in bucket_sizes for policy in recomputes
    }

    pipedream_sims = tuple(SimSpec("pipedream", minibatches, family)
                           for family in schedule_families)

    def cells_of(model: str, strategy: str) -> List[_Cell]:
        if strategy != "pipedream":
            sim = SimSpec(strategy, grid_minibatches(strategy, minibatches))
            return [_Cell(model, strategy, precision,
                          PlanSpec(bucket_bytes=bucket), (sim,))
                    for precision in precisions for bucket in bucket_sizes]
        return [_Cell(model, strategy, precision, planned[bucket, policy],
                      pipedream_sims)
                for precision in precisions for bucket in bucket_sizes
                for policy in recomputes]

    cells = [cell for model in models for strategy in strategies
             for cell in cells_of(model, strategy)]

    pooled = workers > 1 and len(cells) > 1
    # In-process cells share the caller's contexts and one runs dict (run
    # key -> record fields, for this call only); pooled cells get neither.
    shared = () if pooled else (contexts, {})
    tasks = [(cell, topology, worker_counts, device, *shared)
             for cell in cells]
    if pooled:
        with concurrent.futures.ProcessPoolExecutor(
                min(workers, len(cells))) as pool:
            outcomes = list(pool.map(_run_cell_guarded, tasks))
    else:
        outcomes = list(map(_run_cell_guarded, tasks))

    by_cell: Dict[_Cell, list] = {}
    failures: List[SweepFailure] = []
    for cell, (cell_records, error) in zip(cells, outcomes):
        if error is not None:
            failures.extend(SweepFailure(
                cell.model, cell.strategy, error, cell.precision,
                cell.spec.bucket_bytes, cell.spec.recompute,
                sim.schedule_family) for sim in cell.sims)
            cell_records = [None] * len(worker_counts)
        by_cell[cell] = cell_records

    # Serial iteration order: model-major, then worker count, then
    # strategy, then precision, then bucket size, then the pipedream-only
    # (recompute, schedule family) axes.
    records = [
        record
        for model in models
        for idx in range(len(worker_counts))
        for strategy in strategies
        for cell in cells_of(model, strategy)
        for record in by_cell[cell][idx] or ()
    ]

    if failures:
        raise SweepError(failures, records)
    return records


def records_to_csv(records: Iterable[SweepRecord],
                   path: Optional[str] = None) -> str:
    """Serialize records as CSV; writes to ``path`` when given.

    Per-stage tuple fields (``stage_seconds``, ``boundary_seconds``,
    ``stage_memory_bytes``) are flattened to ``|``-joined scalars so the
    output stays one row per record and round-trips through plain
    ``csv.DictReader`` (split on ``|`` to recover the stage axis).

    The ``tp_degrees`` column appears only when at least one record carries
    a non-default menu, so sweeps that never open the tensor-parallel axis
    serialize byte-identically to pre-tp output.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to serialize")
    fieldnames = list(asdict(records[0]))
    if all(record.tp_degrees is None for record in records):
        fieldnames.remove("tp_degrees")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for record in records:
        row = {
            key: "|".join(repr(v) for v in value)
            if isinstance(value, (tuple, list)) else value
            for key, value in asdict(record).items()
            if key in fieldnames
        }
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def precision_chart(records: Sequence[SweepRecord],
                    metric: str = "samples_per_second",
                    title: str = "fp16 vs fp32",
                    y_label: Optional[str] = None):
    """Figure-12-style line chart: ``metric`` vs workers, one series per
    (model, strategy, precision).

    Any numeric :class:`SweepRecord` field works as the metric
    (``samples_per_second``, ``allreduce_seconds``, ``peak_memory_gb``,
    ``communication_overhead``...).
    """
    from repro.utils.svgplot import LineChart

    chart = LineChart(
        title=title,
        x_label="workers",
        y_label=y_label if y_label is not None else metric,
        y_percent=(metric == "communication_overhead"),
    )
    series: Dict[Tuple[str, str, str], List[Tuple[float, float]]] = {}
    for record in records:
        key = (record.model, record.strategy, record.precision)
        series.setdefault(key, []).append(
            (record.workers, float(getattr(record, metric)))
        )
    for (model, strategy, precision), points in sorted(series.items()):
        chart.add_series(
            f"{model}/{strategy}/{precision}",
            sorted(points),
        )
    return chart
