"""Communication substrate: typed channels and collective algorithms.

The paper's runtime moves activations and gradients over point-to-point
channels (Gloo) and synchronizes replicated stages with ring all_reduce
(NCCL).  This package provides in-process equivalents with full byte
accounting, so the training runtime's *measured* communication volumes can
be cross-checked against the analytic model behind Figure 17
(:func:`~repro.core.partition.communication_bytes_per_minibatch`).
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".channel": "Channel Message Network",
    ".collective": "ring_allreduce",
})
