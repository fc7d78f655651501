"""Seeded inputs shared by the workloads.

Every input is a pure function of the ``random.Random`` handed in, which
each workload seeds from ``--seed``; ``repro`` only ever sees the values.
"""

from __future__ import annotations

import random
from typing import List

from repro.api import Stage, make_cluster
from repro.core.profile import LayerProfile, ModelProfile

#: The paper's evaluation models (§5.1).
PAPER_MODELS = (
    "vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8", "awd-lm", "s2vt",
)


def synthetic_profile(num_layers: int, rng: random.Random,
                      name: str = "synthetic") -> ModelProfile:
    """A transformer-style profile: embedding + N x (attention, mlp) + head.

    Sizes follow a 1024-wide, 128-token, batch-32 fp32 decoder with an
    8k vocabulary on a ~4 TFLOP/s device, which on Cluster-A puts compute,
    weight synchronisation and activation transfer within a small factor
    of each other.  Each layer's compute time is jittered +-20 % and the
    whole then rescaled to the unjittered total: no two seeds (and no two
    cold-miss requests) share a profile or a best plan, while the work the
    planner does — which depends on layer and worker counts — and the
    perfect-balance bound that ``cost_ratio`` divides by stay put.
    """
    if num_layers < 4 or num_layers % 2:
        raise ValueError("need an even layer count >= 4")
    hidden, seq, batch, vocab = 1024, 128, 32, 8192
    acts = batch * seq * hidden * 4
    blocks = (num_layers - 2) // 2
    #: (name, seconds, activation bytes, weight bytes, kind)
    rows = [("embedding", 4e-3, acts, vocab * hidden * 4, "embedding")]
    for block in range(blocks):
        rows.append((f"attention{block}", 24e-3, acts,
                     4 * hidden * hidden * 4, "fc"))
        rows.append((f"mlp{block}", 36e-3, acts, 8 * hidden * hidden * 4, "fc"))
    rows.append(("head", 32e-3, batch * seq * 4, vocab * hidden * 4, "fc"))
    jittered = [row[1] * (1.0 + rng.uniform(-0.2, 0.2)) for row in rows]
    scale = sum(row[1] for row in rows) / sum(jittered)
    return ModelProfile(
        name,
        [LayerProfile(row[0], seconds * scale, row[2], row[3], kind=row[4])
         for row, seconds in zip(rows, jittered)],
        batch)


def even_stages(num_layers: int, num_stages: int, replicas: int) -> List[Stage]:
    """A hand-built plan: ``num_stages`` near-equal layer spans."""
    cuts = [round(i * num_layers / num_stages) for i in range(num_stages + 1)]
    return [Stage(cuts[i], cuts[i + 1], replicas) for i in range(num_stages)]


def latency_cluster(num_servers: int):
    """Cluster-A bandwidths with a per-collective set-up cost
    (alpha = 50 us inside a server, 5 ms between servers), which is what
    makes ``bucket_bytes`` a live planning axis."""
    return make_cluster(
        "Cluster-A-latency", 4, num_servers, 12e9, 10e9 / 8,
        intra_allreduce_efficiency=0.10, inter_allreduce_efficiency=0.25,
        intra_allreduce_latency=50e-6, inter_allreduce_latency=5e-3,
    )
