"""§5.4: PipeDream vs. GPipe-style inter-batch pipelining.

GNMT-16 on 16 workers of Clusters A and B, using the same stage partition
for both systems (GPipe does not ship a partitioner).  Two GPipe settings:
pipeline depth equal to PipeDream's NOAM, and the larger memory-limited
depth.  Paper shape: GPipe is 55%/71% slower at NOAM depth and 35%/42%
slower at maximum depth, due to pipeline flushes and recomputation.
"""

from __future__ import annotations

from common import print_header, print_rows, run_once

from repro.core.topology import cluster_a, cluster_b
from repro.profiler import analytic_profile
from repro.sim import simulate_gpipe, simulate_partition
from repro.sim.strategies import balanced_straight_stages


def run():
    profile = analytic_profile("gnmt16")
    results = {}
    for label, topology in (("Cluster-A", cluster_a(4)), ("Cluster-B", cluster_b(2))):
        stages = balanced_straight_stages(profile, 16)
        noam = len(stages)  # straight pipeline: NOAM = #stages = 16
        pipedream = simulate_partition(profile, topology, stages,
                                       num_minibatches=64)
        gpipe_noam = simulate_gpipe(profile, topology, stages=stages,
                                    num_batches=8, num_microbatches=noam)
        gpipe_max = simulate_gpipe(profile, topology, stages=stages,
                                   num_batches=4, num_microbatches=2 * noam)
        results[label] = {
            "pipedream": pipedream.samples_per_second,
            "gpipe_noam": gpipe_noam.samples_per_second,
            "gpipe_max": gpipe_max.samples_per_second,
        }
    return results


def report(results) -> None:
    print_header("§5.4 — GPipe throughput slowdown vs. PipeDream (GNMT-16, 16 workers)")
    rows = []
    for label, r in results.items():
        slow_noam = 1.0 - r["gpipe_noam"] / r["pipedream"]
        slow_max = 1.0 - r["gpipe_max"] / r["pipedream"]
        rows.append([label, f"{slow_noam:.0%}", f"{slow_max:.0%}"])
    print_rows(
        ["cluster", "slowdown @ NOAM depth (paper 55%/71%)",
         "slowdown @ max depth (paper 35%/42%)"],
        rows,
    )


def test_gpipe_slower_than_pipedream(benchmark):
    results = run_once(benchmark, run)
    for label, r in results.items():
        # GPipe is meaningfully slower in both settings...
        assert r["gpipe_noam"] < 0.9 * r["pipedream"], label
        assert r["gpipe_max"] < 0.95 * r["pipedream"], label
        # ...and deeper pipelines amortize flushes better (paper's ordering).
        assert r["gpipe_max"] > r["gpipe_noam"], label


if __name__ == "__main__":
    report(run())
