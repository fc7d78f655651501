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

from repro.core.graph import LayerGraph, LayerSpec
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.topology import Topology, CLUSTER_A, CLUSTER_B, CLUSTER_C
from repro.core.partition import (
    PartitionResult,
    Stage,
    PipeDreamOptimizer,
)
from repro.core.spec import PlanSpec, SimSpec
from repro.core.schedule import (
    Op,
    OpKind,
    Schedule,
    asp_schedule,
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    one_f_one_b_schedule,
    validate_schedule,
)
from repro.core.stashing import WeightStore, WeightVersion

__all__ = [
    "LayerGraph",
    "LayerSpec",
    "LayerProfile",
    "ModelProfile",
    "Topology",
    "CLUSTER_A",
    "CLUSTER_B",
    "CLUSTER_C",
    "PartitionResult",
    "Stage",
    "PipeDreamOptimizer",
    "PlanSpec",
    "SimSpec",
    "Op",
    "OpKind",
    "Schedule",
    "one_f_one_b_schedule",
    "one_f_one_b_rr_schedule",
    "gpipe_schedule",
    "model_parallel_schedule",
    "data_parallel_schedule",
    "asp_schedule",
    "validate_schedule",
    "WeightStore",
    "WeightVersion",
]
