"""Workload ``plan_scale``: the planner does ~100 % of the work.

Synthetic transformer-style profiles are solved *cold* (a fresh
``PipeDreamOptimizer``, no shared context) over a fixed list of
configurations, one per planning axis.  The paper's own models (<= 21
layers, <= 32 workers) solve in 2-7 ms, where timer noise hides any DP
change; these sizes are the smallest at which each axis costs a tenth of
a second or more and a round still fits the run-time cap several times.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.api import PipeDreamOptimizer, cluster_a
from repro.core.partition import evaluate_partition_on_topology
from repro.sim import pipeline_memory_footprint

from common import RoundWorkload, cost_ratio, rel_equal
from inputs import latency_cluster, synthetic_profile

FLAVOURS = ("free", "capped", "recompute_tp", "tp", "bucketed")
TP_MENU = (1, 2, 4)


class Config:
    """One solve: a profile, a topology and the optimizer's keywords.

    ``cap_of`` names the free-plan config whose peak footprint, times
    ``cap_share``, becomes this config's memory limit; the warm-up round
    resolves it, so timed rounds run with fixed numbers.
    """

    def __init__(self, name: str, flavour: str, profile, topology,
                 cap_of: Optional[str] = None, cap_share: float = 0.0,
                 **options: Any):
        self.name = name
        self.flavour = flavour
        self.profile = profile
        self.topology = topology
        self.cap_of = cap_of
        self.cap_share = cap_share
        self.options = options
        self.config_string: Optional[str] = None
        self.cost = 0.0


class Workload(RoundWorkload):
    def __init__(self, seed: int, quick: bool):
        super().__init__()
        rng = random.Random(seed)
        if quick:
            deep, mid, small = 26, 18, 14
            wide, widest = cluster_a(2), cluster_a(4)
            latency = latency_cluster(2)
        else:
            deep, mid, small = 66, 42, 26
            wide, widest = cluster_a(8), cluster_a(16)
            latency = latency_cluster(8)
        p_deep = synthetic_profile(deep, rng, f"decoder{deep}")
        p_mid = synthetic_profile(mid, rng, f"decoder{mid}")
        p_small = synthetic_profile(small, rng, f"decoder{small}")
        self.configs: List[Config] = [
            Config("deep_free", "free", p_deep, cluster_a(1 if quick else 4)),
            Config("wide_free", "free", p_mid, wide),
            Config("wide_capped", "capped", p_mid, wide,
                   cap_of="wide_free", cap_share=0.75),
            Config("wide_recompute_tp", "recompute_tp", p_mid, wide,
                   cap_of="wide_free", cap_share=0.42,
                   recompute="auto", tp_degrees=TP_MENU),
            Config("wide_tp", "tp", p_mid, wide, tp_degrees=TP_MENU),
            Config("wide_bucketed", "bucketed", p_mid, latency,
                   bucket_bytes=25e6),
            Config("widest_free", "free", p_small, widest),
            Config("widest_recompute_tp", "recompute_tp", p_small, widest,
                   cap_of="widest_free", cap_share=0.30,
                   recompute="auto", tp_degrees=TP_MENU),
        ]
        self.free_peak: Dict[str, float] = {}

    def run_round(self, decompose: bool) -> float:
        tracer, solve_s = self.tracer, 0.0
        for config in self.configs:
            self.reference.tick()
            if config.cap_of and "memory_limit_bytes" not in config.options:
                if config.cap_of not in self.free_peak:
                    self.check(False, f"{config.name}: its free plan "
                                      f"{config.cap_of} was never solved")
                    continue
                config.options["memory_limit_bytes"] = (
                    config.cap_share * self.free_peak[config.cap_of])
            try:
                with tracer.span("core.partition", "solve",
                                 op=config.name) as span:
                    plan = PipeDreamOptimizer(
                        config.profile, config.topology, **config.options
                    ).solve()
            except RuntimeError as exc:
                # No plan, so no time either: the metrics leave it out.
                self.check(False, f"{config.name}: {exc}")
                continue
            self.samples["solve/" + config.name].append(span.seconds)
            solve_s += span.seconds
            self.free_peak.setdefault(config.name, max(plan.memory_bytes))
            self.check(self.plan_ok(config, plan), config.name)
        return solve_s

    def plan_ok(self, config: Config, plan) -> bool:
        """The output checks of one solve; each failure is logged by name."""
        profile, stages = config.profile, plan.stages
        with self.tracer.span("core.partition", "evaluate", op=config.name) as ev:
            evaluated = evaluate_partition_on_topology(
                profile, stages, config.topology,
                bucket_bytes=config.options.get("bucket_bytes"))
        with self.tracer.span("sim.memory", "footprint", op=config.name) as fp:
            footprint = pipeline_memory_footprint(profile, stages)
        self.samples["evaluate/" + config.name].append(ev.seconds)
        self.samples["footprint/" + config.name].append(fp.seconds)
        cap = config.options.get("memory_limit_bytes")
        tiles = (stages[0].start == 0 and stages[-1].stop == len(profile)
                 and all(a.stop == b.start
                         for a, b in zip(stages, stages[1:])))
        fits = sum(s.replicas * s.tp_degree for s in stages) \
            <= config.topology.total_workers
        under_cap = cap is None or max(footprint) <= cap
        priced = rel_equal(evaluated, plan.slowest_stage_time)
        if config.config_string is None:
            config.config_string = plan.config_string
            config.cost = plan.slowest_stage_time
        repeats = (config.config_string == plan.config_string
                   and config.cost == plan.slowest_stage_time)
        return tiles and fits and under_cap and priced and repeats

    # ------------------------------------------------------------------
    def solved(self) -> List[Config]:
        """The configs that returned a plan (all of them, unless a solve
        failed in every round and the run is incorrect anyway)."""
        return [c for c in self.configs if self.samples["solve/" + c.name]]

    def per_plan(self, prefix: str) -> float:
        """Mean over the plans of one per-plan call's time."""
        solved = self.solved()
        return sum(self.seconds(prefix + c.name) for c in solved) / len(solved)

    def end_to_end(self) -> Dict[str, Any]:
        metrics = self.item_metrics(
            len(self.configs), ["solve/" + c.name for c in self.configs])
        metrics["cost_ratio"] = {"value": cost_ratio(
            (c.cost,
             c.profile.total_compute_time / c.topology.total_workers)
            for c in self.solved())}
        return metrics

    def per_layer(self) -> Dict[str, float]:
        solved = self.solved()
        solves = {c.name: self.seconds("solve/" + c.name) for c in solved}
        total = sum(solves.values())
        metrics = {
            "core.partition.solve_s": total,
            "core.partition.solves": len(solved),
            # both as the clock read them
            "core.partition.first_touch_s": self.warm_up_primary_s - sum(
                min(self.samples["solve/" + c.name]) for c in solved),
            "core.partition.evaluate_us": self.per_plan("evaluate/") * 1e6,
            "core.partition.plan_cost_s": sum(c.cost for c in solved),
            "sim.memory.footprint_us": self.per_plan("footprint/") * 1e6,
        }
        for flavour in FLAVOURS:
            metrics["core.partition.solve_s." + flavour] = sum(
                solves[c.name] for c in solved if c.flavour == flavour)
        metrics.update(self.trace_metrics(
            ["solve/" + c.name for c in solved]))
        return metrics
