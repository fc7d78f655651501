"""Discrete-event cluster simulator.

Executes the static schedules of :mod:`repro.core.schedule` over a
hierarchical :class:`~repro.core.topology.Topology` using a model's
``(T_l, a_l, w_l)`` profile, modelling per-worker compute occupancy,
point-to-point activation/gradient transfers on contended channels, and
ring all_reduce weight synchronization — the substitute for the paper's
physical GPU clusters (DESIGN.md §2).
"""

from repro.sim.network import Placement, allreduce_time, transfer_time
from repro.sim.faults import FaultEvent, FaultSchedule, parse_faults
from repro.sim.executor import SimOptions, SimResult, OpRecord, simulate
from repro.sim.memory import (
    data_parallel_memory_footprint,
    pipeline_memory_footprint,
    stage_deferred_weight_bytes,
    stage_memory_bytes,
    stage_memory_cost,
)
from repro.sim.trace import chrome_trace_events, export_chrome_trace
from repro.sim.sweep import (
    SweepError,
    SweepFailure,
    SweepRecord,
    precision_chart,
    records_to_csv,
    run_sweep,
    speedup_table,
)
from repro.sim.strategies import (
    StrategyResult,
    simulate_data_parallel,
    simulate_gpipe,
    simulate_model_parallel,
    simulate_pipedream,
    simulate_partition,
    simulate_plan,
    simulate_strategy,
)

__all__ = [
    "Placement",
    "allreduce_time",
    "transfer_time",
    "FaultEvent",
    "FaultSchedule",
    "parse_faults",
    "SimOptions",
    "SimResult",
    "OpRecord",
    "simulate",
    "pipeline_memory_footprint",
    "data_parallel_memory_footprint",
    "stage_memory_cost",
    "stage_memory_bytes",
    "stage_deferred_weight_bytes",
    "chrome_trace_events",
    "export_chrome_trace",
    "SweepRecord",
    "SweepError",
    "SweepFailure",
    "run_sweep",
    "records_to_csv",
    "speedup_table",
    "precision_chart",
    "StrategyResult",
    "simulate_data_parallel",
    "simulate_model_parallel",
    "simulate_gpipe",
    "simulate_pipedream",
    "simulate_partition",
    "simulate_plan",
    "simulate_strategy",
]
