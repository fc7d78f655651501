"""Deterministic load generator for the planner service.

Builds a fixed mixed hot/cold request trace over the seven paper models and
replays it against a :class:`~repro.serve.service.PlannerService`, recording
plans/sec and p50/p99 per-request latency.  Two workloads pin the serving
numbers into ``BENCH_perf.json``:

- ``serve_loadgen_mixed`` — the headline: a warm service (plan cache +
  warm-started solves) must sustain >= 5x the cold-path throughput on the
  mixed trace, and every served plan must be bitwise-equal to a cold
  :meth:`PipeDreamOptimizer.solve` — both are boolean-gated by
  ``tools/check_perf.py``.
- ``serve_warm_start_axes`` — isolates layer 2: plan cache *disabled*, so
  every request re-solves; the only reuse is the shared
  :class:`SolverContext` tables across worker-count/memory-cap axes.

The trace is a pure function of its parameters (fixed PRNG seed, fixed
query pool), so recorded numbers are comparable across runs.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from perf.harness import workload

from repro.core.partition import PipeDreamOptimizer
from repro.core.profile import PRECISION_BYTES
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.serve.service import PlannerService, normalize_plan_request

#: The paper's evaluation models (§5.1) — the service's steady clientele.
SEED_MODELS = (
    "vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8", "awd-lm", "s2vt",
)

#: Memory caps the trace mixes in (None = unconstrained).  16 GB is the
#: V100 card; 12 GB binds for the conv-heavy models.
MEMORY_CAPS = (None, 16e9, 12e9)


def build_query_pool() -> List[Dict]:
    """The distinct plan requests the trace draws from.

    Worker counts sweep the cluster's packable subsets; caps and
    precisions multiply a subset of cells so the pool has both repeated
    (profile, topology) pairs — warm-start food — and genuinely distinct
    keys.
    """
    pool: List[Dict] = []
    for model in SEED_MODELS:
        for workers in (4, 8, 16):
            pool.append({
                "model": model, "cluster": "a", "servers": 4,
                "num_workers": workers,
            })
    # Capped and fp16 variants for a third of the models keep the pool
    # mixed without blowing up the cold pass's wall clock.
    for model in ("vgg16", "gnmt8"):
        for cap in MEMORY_CAPS[1:]:
            pool.append({
                "model": model, "cluster": "a", "servers": 4,
                "num_workers": 16, "memory_limit_bytes": cap,
            })
        pool.append({
            "model": model, "cluster": "a", "servers": 4,
            "num_workers": 16, "precision": "fp16",
        })
    return pool


def build_trace(length: int = 120, hot_fraction: float = 0.8,
                hot_pool: int = 6, seed: int = 20190827) -> List[Dict]:
    """A deterministic mixed trace: ``hot_fraction`` of requests hit a
    small hot set, the rest scan the full pool round-robin (the cold
    tail).  ``seed`` fixes the interleaving (default: PipeDream's SOSP
    camera-ready date)."""
    pool = build_query_pool()
    rng = random.Random(seed)
    hot = pool[:hot_pool]
    cold_cycle = iter(())
    trace: List[Dict] = []
    for _ in range(length):
        if rng.random() < hot_fraction:
            trace.append(rng.choice(hot))
        else:
            nxt = next(cold_cycle, None)
            if nxt is None:
                cold_cycle = iter(pool)
                nxt = next(cold_cycle)
            trace.append(nxt)
    return trace


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(fraction * (len(sorted_values) - 1)))))
    return sorted_values[index]


def replay(service: PlannerService, trace: List[Dict]) -> Dict[str, float]:
    """Replay ``trace`` serially, timing each request.

    Returns plans/sec plus p50/p99 per-request latency (ms).  Serial
    replay makes latency well-defined on a 1-CPU box; the concurrency
    behaviour is covered by the test suite, not the benchmark.
    """
    latencies: List[float] = []
    t_start = time.perf_counter()
    for request in trace:
        t0 = time.perf_counter()
        service.plan(request)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - t_start
    latencies.sort()
    return {
        "requests": len(trace),
        "seconds": elapsed,
        "plans_per_sec": len(trace) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
    }


def _reference_payload(request: Dict) -> Tuple:
    """The ground truth for ``request``: a direct cold optimizer solve."""
    query = normalize_plan_request(request)
    result = PipeDreamOptimizer(
        query.profile, query.topology, **query.spec.options(),
    ).solve(query.num_workers)
    return (
        [[s.start, s.stop, s.replicas] for s in result.stages],
        result.slowest_stage_time,
        list(result.memory_bytes),
    )


def _served_equals_cold(service: PlannerService, trace: List[Dict]) -> bool:
    """Every distinct trace query: served answer == cold solve, bitwise."""
    seen = set()
    for request in trace:
        key = normalize_plan_request(request).key
        if key in seen:
            continue
        seen.add(key)
        served = service.plan(request)
        reference = _reference_payload(request)
        if (served["stages"], served["slowest_stage_time"],
                served["memory_bytes"]) != reference:
            return False
    return True


@workload("serve_loadgen_mixed")
def serve_loadgen_mixed():
    """The mixed-trace serving benchmark: warm stack vs cold path.

    Cold = no plan cache, no warm starts: every request is a from-scratch
    solve (the pre-service behaviour).  Warm = the default service after
    one warming pass, i.e. the steady state a long-lived server sits in.
    The tracked number is the warm pass; the >= 5x throughput gate and the
    bitwise-parity gate ride in the detail booleans.
    """
    trace = build_trace()

    cold_service = PlannerService(plan_cache_size=0, warm_start=False)
    cold = replay(cold_service, trace)

    warm_service = PlannerService()
    first_pass = replay(warm_service, trace)  # fills caches (recorded, ungated)
    # Best-of-3 steady-state passes: the warm path is microseconds per
    # request, so one scheduler hiccup would dominate a single pass.
    warm = min(
        (replay(warm_service, trace) for _ in range(3)),
        key=lambda stats: stats["seconds"],
    )

    speedup = (warm["plans_per_sec"] / cold["plans_per_sec"]
               if cold["plans_per_sec"] else float("inf"))
    parity = _served_equals_cold(warm_service, trace)
    cache_stats = warm_service.plan_cache.stats()
    return warm["seconds"], {
        "trace_requests": len(trace),
        "distinct_queries": len(
            {normalize_plan_request(r).key for r in trace}
        ),
        "cold_plans_per_sec": cold["plans_per_sec"],
        "cold_p50_ms": cold["p50_ms"],
        "cold_p99_ms": cold["p99_ms"],
        "first_pass_plans_per_sec": first_pass["plans_per_sec"],
        "warm_plans_per_sec": warm["plans_per_sec"],
        "warm_p50_ms": warm["p50_ms"],
        "warm_p99_ms": warm["p99_ms"],
        "gated_latency_ms": {
            "warm_p50": warm["p50_ms"],
            "warm_p99": warm["p99_ms"],
        },
        "warm_speedup": speedup,
        "plan_cache_hit_rate": cache_stats["hit_rate"],
        "warm_speedup_at_least_5x": speedup >= 5.0,
        "served_equals_cold": parity,
    }


@workload("serve_warm_start_axes")
def serve_warm_start_axes():
    """Warm-started re-solves across worker-count and memory-cap axes.

    Plan cache off, so every request runs the optimizer; the solver
    context is the only reuse layer.  The axes are the incremental-query
    pattern the suffix-structured tables target: same profile, shrinking
    worker counts, then tightening caps.
    """
    requests = [
        {"model": "vgg16", "cluster": "a", "servers": 4,
         "num_workers": workers, "memory_limit_bytes": cap}
        for cap in (16e9, 12e9, 8e9)
        for workers in (16, 8, 4)
    ]

    def total_seconds(service: PlannerService) -> float:
        t0 = time.perf_counter()
        for request in requests:
            service.plan(request)
        return time.perf_counter() - t0

    cold_seconds = total_seconds(
        PlannerService(plan_cache_size=0, warm_start=False)
    )
    warm_service = PlannerService(plan_cache_size=0, warm_start=True)
    warm_seconds = total_seconds(warm_service)

    profile = analytic_profile(
        "vgg16", bytes_per_element=PRECISION_BYTES["fp32"]
    )
    context_stats = warm_service.contexts.get(profile).stats()
    parity = _served_equals_cold(warm_service, requests)
    return warm_seconds, {
        "queries": len(requests),
        "cold_seconds": cold_seconds,
        "warm_speedup": (cold_seconds / warm_seconds
                         if warm_seconds > 0 else float("inf")),
        "level_hits": context_stats["level_hits"],
        "bound_hits": context_stats["bound_hits"],
        "comm_hits": context_stats["comm_hits"],
        "warm_start_reused_tables": (
            context_stats["level_hits"] + context_stats["bound_hits"]
            + context_stats["comm_hits"]
        ) > 0,
        "served_equals_cold": parity,
    }


def main() -> int:
    """Run both serving workloads once and print their numbers.

    Usage: ``PYTHONPATH=src:benchmarks python -m perf.loadgen``
    """
    from perf.harness import WORKLOADS

    for name in ("serve_loadgen_mixed", "serve_warm_start_axes"):
        seconds, detail = WORKLOADS[name]()
        print(f"{name}: {seconds * 1e3:.1f} ms")
        for key, value in detail.items():
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
