"""PipeDream's core contribution: profiling, partitioning, scheduling, and
weight versioning.

The pieces map onto the paper as follows:

- :mod:`repro.core.graph` / :mod:`repro.core.profile` — the layer graph and
  the per-layer ``(T_l, a_l, w_l)`` profile consumed by the optimizer (§3.1).
- :mod:`repro.core.topology` — hierarchical machine topologies (Figure 7)
  and the three clusters of Table 2.
- :mod:`repro.core.partition` — the hierarchical dynamic-programming
  optimizer computing stage boundaries, replication factors, and NOAM (§3.1).
- :mod:`repro.core.spec` — the optimizer's options as one validated value.
- :mod:`repro.core.schedule` — static 1F1B / 1F1B-RR schedules plus the
  GPipe, model-parallel, and data-parallel baselines (§3.2).
- :mod:`repro.core.stashing` — weight stashing and vertical sync (§3.3).
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".profile": "LayerProfile ModelProfile",
    ".topology": "Topology CLUSTER_A CLUSTER_B CLUSTER_C",
    ".partition": "PartitionResult Stage PipeDreamOptimizer",
    ".spec": "PlanSpec SimSpec",
    ".schedule": "Op OpKind Schedule one_f_one_b_schedule "
                 "one_f_one_b_rr_schedule gpipe_schedule "
                 "model_parallel_schedule data_parallel_schedule "
                 "asp_schedule validate_schedule",
    ".stashing": "WeightStore WeightVersion",
})
