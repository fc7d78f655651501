"""Hierarchical machine topologies (Figure 7) and the clusters of Table 2.

A topology is a list of levels.  Level ``k`` (1-based, as in the paper)
groups ``m_k`` components of level ``k-1`` and connects them with links of
bandwidth ``B_k`` bytes/second.  Level 0 is a single compute device, so the
total worker count is the product of all ``m_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

GBPS = 1e9 / 8  # 1 Gbit/s in bytes/second
GBYTES = 1e9  # 1 GB/s in bytes/second

#: The most workers a topology may hold.  The planner's tables grow as
#: O(workers * layers^2): a 1 024-worker solve of vgg16 or gnmt16 takes a
#: few seconds, a 4 096-worker one tens of seconds, and ten million
#: workers would allocate tens of GiB, so larger inputs are refused.
MAX_WORKERS = 1024


@dataclass(frozen=True)
class TopologyLevel:
    """One level of the hierarchy: ``count`` children linked at ``bandwidth``.

    ``allreduce_efficiency`` is the fraction of line rate a ring all_reduce
    achieves on this level.  Point-to-point transfers (activations and
    gradients between pipeline stages) run at line rate; collective
    synchronization does not — NCCL/Gloo rings over shared PCIe trees and
    especially over cloud Ethernet reach a small fraction of link bandwidth
    (the paper's Figure 1 / Table 3 measurements embed exactly this gap).
    The default cluster values below are calibrated so the simulated DP
    communication overheads match Figure 1's measured shapes.

    ``allreduce_latency`` is the fixed per-collective setup cost (seconds)
    a ring on this level pays regardless of payload size — the α in the
    α + bytes/BW pricing that makes gradient *bucketing* a real tradeoff:
    many small buckets overlap better with backward compute but each pays
    α again, one giant bucket pays α once but cannot start until the last
    gradient exists.  The default 0.0 keeps every pre-bucketing cost
    bitwise unchanged.
    """

    count: int
    bandwidth: float  # bytes per second
    allreduce_efficiency: float = 1.0
    allreduce_latency: float = 0.0  # seconds per collective at this level

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("level count must be >= 1")
        if not self.bandwidth > 0:  # NaN too
            raise ValueError("bandwidth must be positive")
        if not 0 < self.allreduce_efficiency <= 1:
            raise ValueError("allreduce_efficiency must be in (0, 1]")
        if not self.allreduce_latency >= 0:
            raise ValueError("allreduce_latency must be >= 0")

    @property
    def allreduce_bandwidth(self) -> float:
        return self.bandwidth * self.allreduce_efficiency


class Topology:
    """A hierarchical interconnect description.

    ``levels[0]`` is the innermost level (GPUs within a server); the last
    entry is the outermost (servers within the cluster).  A flat topology has
    a single level.

    Attributes:
        name: Identifier used in reports.
        levels: Innermost-to-outermost level list.
        compute_scale: Relative per-device compute speed (1.0 = reference
            V100); profiles are divided by this when simulating the cluster.
    """

    def __init__(self, name: str, levels: Sequence[TopologyLevel], compute_scale: float = 1.0):
        if not levels:
            raise ValueError("topology needs at least one level")
        if not 0 < compute_scale < math.inf:
            raise ValueError(
                f"compute_scale must be finite and > 0, got {compute_scale}")
        self.name = name
        self.levels: List[TopologyLevel] = list(levels)
        self.compute_scale = compute_scale
        if self.total_workers > MAX_WORKERS:
            raise ValueError(
                f"topology has {self.total_workers} workers, more than "
                f"MAX_WORKERS = {MAX_WORKERS}")

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def total_workers(self) -> int:
        total = 1
        for level in self.levels:
            total *= level.count
        return total

    def bandwidth(self, level: int) -> float:
        """Bandwidth of links at 1-based level ``level``."""
        return self.levels[level - 1].bandwidth

    def flat(self) -> "Topology":
        """Collapse to a single level at the outermost (slowest) bandwidth.

        Useful for baselines that ignore hierarchy.
        """
        slowest = min(self.levels, key=lambda level: level.bandwidth)
        return Topology(
            f"{self.name}-flat",
            [TopologyLevel(self.total_workers, slowest.bandwidth,
                           slowest.allreduce_efficiency,
                           slowest.allreduce_latency)],
            compute_scale=self.compute_scale,
        )

    def subset(self, num_workers: int) -> "Topology":
        """A topology restricted to the first ``num_workers`` workers.

        Fills innermost levels first, matching how jobs are packed onto
        multi-GPU servers in the paper's weak-scaling experiments.
        """
        if num_workers < 1 or num_workers > self.total_workers:
            raise ValueError(
                f"cannot take {num_workers} workers from {self.total_workers}"
            )
        levels: List[TopologyLevel] = []
        remaining = num_workers
        for level in self.levels:
            take = min(level.count, remaining)
            levels.append(TopologyLevel(take, level.bandwidth,
                                        level.allreduce_efficiency,
                                        level.allreduce_latency))
            remaining = -(-remaining // take)  # ceil div: components still needed
        packed = 1
        for level in levels:
            packed *= level.count
        if packed != num_workers:
            raise ValueError(
                f"{num_workers} workers do not pack evenly into topology {self.name}"
            )
        # Trim trailing singleton levels (keep at least one level).
        while len(levels) > 1 and levels[-1].count == 1:
            levels.pop()
        return Topology(f"{self.name}-{num_workers}w", levels, compute_scale=self.compute_scale)

    def __repr__(self) -> str:
        spec = " / ".join(
            f"{level.count}x@{level.bandwidth / GBYTES:.2f}GBps" for level in self.levels
        )
        return f"Topology({self.name!r}: {spec})"


def make_cluster(
    name: str,
    gpus_per_server: int,
    num_servers: int,
    intra_bandwidth: float,
    inter_bandwidth: float,
    compute_scale: float = 1.0,
    intra_allreduce_efficiency: float = 1.0,
    inter_allreduce_efficiency: float = 1.0,
    intra_allreduce_latency: float = 0.0,
    inter_allreduce_latency: float = 0.0,
) -> Topology:
    """Build a standard two-level server/cluster topology."""
    if num_servers < 1:
        raise ValueError(f"num_servers must be >= 1, got {num_servers}")
    levels = [TopologyLevel(gpus_per_server, intra_bandwidth,
                            intra_allreduce_efficiency,
                            intra_allreduce_latency)]
    if num_servers > 1:
        levels.append(TopologyLevel(num_servers, inter_bandwidth,
                                    inter_allreduce_efficiency,
                                    inter_allreduce_latency))
    return Topology(name, levels, compute_scale=compute_scale)


# ----------------------------------------------------------------------
# Table 2 clusters.  Link bandwidths follow §2.3: shared PCIe trees run at
# 10-15 GB/s, NVLink at ~30 GB/s point-to-point, and the quoted Ethernet
# rates between servers.  All_reduce efficiencies are calibrated so the
# simulated data-parallel communication overheads reproduce Figure 1's
# measured shapes: collectives over shared PCIe reach ~20% of line rate
# (contended tree, host-bridge crossings), over cloud Ethernet ~25%
# (PyTorch 1.1 + NCCL, fp32), and over NVLink ~70%.
# ----------------------------------------------------------------------

PCIE_ALLREDUCE_EFFICIENCY = 0.10
ETHERNET_ALLREDUCE_EFFICIENCY = 0.25
NVLINK_ALLREDUCE_EFFICIENCY = 0.70


def cluster_a(num_servers: int = 4) -> Topology:
    """Azure NC24 v3: 4x V100 per server, PCIe intra, 10 Gbps inter."""
    return make_cluster(
        "Cluster-A", 4, num_servers, 12 * GBYTES, 10 * GBPS,
        intra_allreduce_efficiency=PCIE_ALLREDUCE_EFFICIENCY,
        inter_allreduce_efficiency=ETHERNET_ALLREDUCE_EFFICIENCY,
    )


def cluster_b(num_servers: int = 2) -> Topology:
    """AWS p3.16xlarge: 8x V100 per server, NVLink intra, 25 Gbps inter."""
    return make_cluster(
        "Cluster-B", 8, num_servers, 30 * GBYTES, 25 * GBPS,
        intra_allreduce_efficiency=NVLINK_ALLREDUCE_EFFICIENCY,
        inter_allreduce_efficiency=ETHERNET_ALLREDUCE_EFFICIENCY,
    )


def cluster_c(num_servers: int = 4) -> Topology:
    """Private cluster: 1 Titan X per server, 40 Gbps inter.

    Titan X compute is modelled at ~0.5x a V100 for fp32 training.
    """
    return make_cluster(
        "Cluster-C", 1, num_servers, 40 * GBPS, 40 * GBPS,
        compute_scale=0.5,
        intra_allreduce_efficiency=ETHERNET_ALLREDUCE_EFFICIENCY,
        inter_allreduce_efficiency=ETHERNET_ALLREDUCE_EFFICIENCY,
    )


def cluster_1080ti(num_servers: int = 4) -> Topology:
    """Figure 1(a) private cluster: 8x 1080Ti per server over PCIe, 25 Gbps."""
    return make_cluster(
        "Cluster-1080Ti", 8, num_servers, 10 * GBYTES, 25 * GBPS,
        compute_scale=0.4,
        intra_allreduce_efficiency=PCIE_ALLREDUCE_EFFICIENCY,
        inter_allreduce_efficiency=ETHERNET_ALLREDUCE_EFFICIENCY,
    )


#: Named clusters (``--cluster`` on the CLI, ``"cluster"`` in a service
#: request) and their factories, called with a server count.
CLUSTERS = {
    "a": cluster_a,
    "b": cluster_b,
    "c": cluster_c,
    "1080ti": cluster_1080ti,
}


CLUSTER_A = cluster_a()
CLUSTER_B = cluster_b()
CLUSTER_C = cluster_c()
CLUSTER_1080TI = cluster_1080ti()
