"""Discrete-event cluster simulator.

Executes the static schedules of :mod:`repro.core.schedule` over a
hierarchical :class:`~repro.core.topology.Topology` using a model's
``(T_l, a_l, w_l)`` profile, modelling per-worker compute occupancy,
point-to-point activation/gradient transfers on contended channels, and
ring all_reduce weight synchronization — the substitute for the paper's
physical GPU clusters (DESIGN.md §2).
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".network": "Placement allreduce_time",
    ".faults": "FaultEvent FaultSchedule parse_faults",
    ".executor": "SimOptions SimResult OpRecord simulate",
    ".memory": "pipeline_memory_footprint data_parallel_memory_footprint "
               "stage_memory_cost stage_memory_bytes",
    ".trace": "chrome_trace_events export_chrome_trace span_trace_events",
    ".sweep": "SweepRecord SweepError SweepFailure run_sweep records_to_csv "
              "precision_chart",
    ".strategies": "StrategyResult simulate_data_parallel "
                   "simulate_model_parallel simulate_gpipe simulate_pipedream "
                   "simulate_partition simulate_stages simulate_strategy",
})
