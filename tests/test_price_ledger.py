"""The price-fidelity ledger: three prices of each non-DP planner pick.

The planner's free solve on ``cluster_a(4)``, ``cluster_b(2)`` and
``cluster_c(4)`` for the seven paper models picks vanilla data
parallelism six times; the other fifteen picks are listed here, each
priced three ways:

- ``evaluator`` — :func:`evaluate_partition_on_topology`, the bottleneck
  seconds per minibatch every plan is scored with;
- ``period`` — the engine's long-run period ``(T(2N) - T(N)) / N``, with
  ``N`` the largest multiple of the round length ``R = lcm(replicas)``
  up to 1 024;
- ``estimate`` — ``1 / steady_state_throughput`` of a 48-minibatch run,
  the sweep's default length and the rate every driver reports.

The ledger records today's disagreement between the three; it does not
bound it (gnmt16 ``1-1-…-4`` reads 41.0 ms from the evaluator against a
48.8 ms period).  Every cell is pinned at 1e-9 relative, so a change to
either stack's price composition moves a cell and must re-pin it, with
the before/after row in the change's notes.  CI also runs it as its own
step (``pytest -m ledger``).
"""

import math

import pytest

from repro.core.partition import PipeDreamOptimizer, evaluate_partition_on_topology
from repro.core.topology import cluster_a, cluster_b, cluster_c
from repro.profiler import analytic_profile
from repro.sim.strategies import simulate_partition

CLUSTERS = {"a": cluster_a(4), "b": cluster_b(2), "c": cluster_c(4)}

#: (model, cluster, plan, R, evaluator, period, estimate); seconds.
LEDGER = [
    ("vgg16", "a", "15-1", 15,
     0.028342249062400002, 0.028342249062400047, 0.029523176106666663),
    ("vgg16", "b", "15-1", 15,
     0.027492089856, 0.027492089855999807, 0.02761517556622221),
    ("alexnet", "a", "15-1", 15,
     0.008039581988571437, 0.008039581988571338, 0.00803958198857141),
    ("alexnet", "b", "14-1-1", 14,
     0.005206714994938776, 0.005206714994938792, 0.005200437540571433),
    ("alexnet", "c", "3-1", 3,
     0.04123769943771428, 0.04123769943771549, 0.03951946196114287),
    ("gnmt16", "a", "1-1-1-1-1-1-1-1-1-1-1-1-4", 4,
     0.041, 0.048833682285707454, 0.04346493155555558),
    ("gnmt16", "b", "1-7-5-3", 105,
     0.026078085119999993, 0.030758229333333584, 0.027749814857142896),
    ("gnmt16", "c", "straight", 1,
     0.1917396114285714, 0.19436105142858637, 0.1943610514285714),
    ("gnmt8", "a", "1-3-3-1-1-1-1-1-4", 12,
     0.041, 0.04100000000000037, 0.039239175111111094),
    ("gnmt8", "b", "2-3-3-8", 24,
     0.015261037714285716, 0.014607701333334226, 0.014024931555555536),
    ("gnmt8", "c", "straight", 1,
     0.11504376685714288, 0.11766520685714003, 0.11766520685714343),
    ("awd-lm", "a", "1-3-2-2-2-2-3-1", 6,
     0.06601, 0.06592000000000554, 0.060308333333333276),
    ("awd-lm", "b", "8-8", 8,
     0.034875750000000004, 0.03262500000000041, 0.032624999999999994),
    ("awd-lm", "c", "straight", 1,
     0.28800000000000003, 0.2947199999999839, 0.29302999999999985),
    ("s2vt", "a", "2-1-13", 26,
     0.039123953846153844, 0.039123953846154025, 0.029968253968253932),
]


@pytest.mark.ledger
@pytest.mark.parametrize(
    "model, cluster, config, rounds, evaluator, period, estimate", LEDGER,
    ids=[f"{row[0]}-{row[1]}" for row in LEDGER])
def test_price_ledger(model, cluster, config, rounds, evaluator, period,
                      estimate):
    profile = analytic_profile(model)
    topology = CLUSTERS[cluster]
    plan = PipeDreamOptimizer(profile, topology).solve()
    assert plan.config_string == config
    assert math.lcm(*(s.replicas for s in plan.stages)) == rounds
    n = 1024 // rounds * rounds

    def total_time(minibatches):
        return simulate_partition(
            profile, topology, plan.stages, minibatches).sim.total_time

    short = simulate_partition(profile, topology, plan.stages, 48).sim
    got = (evaluate_partition_on_topology(profile, plan.stages, topology),
           (total_time(2 * n) - total_time(n)) / n,
           1.0 / short.steady_state_throughput)
    assert got == pytest.approx((evaluator, period, estimate), rel=1e-9)


@pytest.mark.ledger
def test_ledger_lists_every_non_dp_pick():
    """The fifteen rows are exactly the picks that are not vanilla DP."""
    picks = []
    for model in ("vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8",
                  "awd-lm", "s2vt"):
        profile = analytic_profile(model)
        for cluster, topology in CLUSTERS.items():
            plan = PipeDreamOptimizer(profile, topology).solve()
            if not plan.is_data_parallel:
                picks.append((model, cluster, plan.config_string))
    assert picks == [row[:3] for row in LEDGER]
