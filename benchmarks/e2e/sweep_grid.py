"""Workload ``sweep_grid``: the mixed, figure-12 / Table-1 user path.

``run_sweep`` over the 7 paper models x (4, 8, 16, 32) workers on
``cluster_a(8)`` x all four strategies x fp32/fp16 x bucket (None, 25e6)
x family (1f1b, 2bp): 560 records a round.  It uses the planner the other
way round from ``plan_scale`` — hundreds of millisecond-sized solves that
share one optimizer's memo tables instead of a few cold second-sized ones
— so a DP change that wins there by trading set-up cost or memory for
asymptotics must not lose here.  One call per model (the wait of someone
comparing strategies for their model); profile cache and evaluator tables
are cleared before each round.  The grid is the paper's, so the seed only
orders the models.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from typing import Any, Dict, List

from repro.api import PipeDreamOptimizer, Stage, analytic_profile, cluster_a
from repro.core.partition import (
    clear_eval_tables,
    evaluate_partition_on_topology,
)
from repro.profiler import clear_profile_cache
from repro.sim import pipeline_memory_footprint
from repro.sim.strategies import balanced_straight_stages
from repro.sim.sweep import STRATEGIES, records_to_csv, run_sweep

import pieces
from common import RoundWorkload, cost_ratio, median
from inputs import PAPER_MODELS

#: precision name -> bytes per element of the profile (Figure 12)
PRECISIONS = {"fp32": 4, "fp16": 2}
BUCKETS = (None, 25e6)
FAMILIES = ("1f1b", "2bp")


class Workload(RoundWorkload):
    def __init__(self, seed: int, quick: bool):
        super().__init__()
        self.calls: Dict[str, int] = defaultdict(int)
        rng = random.Random(seed)
        if quick:
            self.models = list(PAPER_MODELS[:2])
            self.topology, self.counts, self.minibatches = \
                cluster_a(2), (4, 8), 16
        else:
            self.models = list(PAPER_MODELS)
            self.topology, self.counts, self.minibatches = \
                cluster_a(8), (4, 8, 16, 32), 48
        rng.shuffle(self.models)
        # dp / mp / gpipe: one cell per precision x bucket; pipedream also
        # per family.
        per_model = len(self.counts) * len(PRECISIONS) * len(BUCKETS) * (
            len(STRATEGIES) - 1 + len(FAMILIES))
        self.cells = per_model * len(self.models)
        self.csv_digest = ""
        self.records: List[Any] = []
        self.replayed_ops = 0

    def sweep(self, model: str):
        return run_sweep(
            [model], self.topology, self.counts,
            strategies=tuple(STRATEGIES), minibatches=self.minibatches,
            workers=1, precisions=tuple(PRECISIONS), bucket_sizes=BUCKETS,
            schedule_families=FAMILIES,
        )

    def run_round(self, decompose: bool) -> float:
        tracer, primary = self.tracer, 0.0
        clear_profile_cache()
        clear_eval_tables()
        records: List[Any] = []
        for model in self.models:
            self.reference.tick()
            with tracer.span("sim.sweep", "run_sweep", op=model) as span:
                records.extend(self.sweep(model))
            self.samples["sweep/" + model].append(span.seconds)
            primary += span.seconds
        with tracer.span("sim.sweep", "records_to_csv") as span:
            text = records_to_csv(records)
        self.samples["csv"].append(span.seconds)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if not self.csv_digest:
            self.csv_digest, self.records = digest, records
        # Every cell is one operation; a short or changed round fails the
        # cells it lost (all of them, when the records differ).
        good = min(len(records), self.cells) if digest == self.csv_digest else 0
        self.attempted += self.cells
        self.failed += self.cells - good
        if decompose:
            # Pairwise, within one round, so that a slow spell of the
            # machine cancels out of the difference.
            self.samples["self"].append(primary - self.replay())
        return primary

    def replay(self) -> float:
        """The same cells again, as the public calls a cell is made of:
        profile, solve, schedule build, simulate, evaluate, footprint.
        Returns the seconds those calls took."""
        tracer, m = self.tracer, self.minibatches
        first, ops = len(tracer.spans), 0

        def priced(stages, profile, sub, bucket) -> None:
            with tracer.span("core.partition", "evaluate"):
                evaluate_partition_on_topology(profile, stages, sub,
                                               bucket_bytes=bucket)
            with tracer.span("sim.memory", "footprint"):
                pipeline_memory_footprint(profile, stages)

        subsets = [self.topology.subset(count) for count in self.counts]
        for model in self.models:
            for precision in PRECISIONS:
                with tracer.span("profiler", "analytic_profile", op=model):
                    profile = analytic_profile(
                        model, bytes_per_element=PRECISIONS[precision],
                        cache=False)
                for bucket in BUCKETS:
                    for sub in subsets:
                        workers = sub.total_workers
                        label = f"{model}/{precision}/{workers}/"
                        ops += pieces.data_parallel(
                            tracer, label + "dp", profile, sub,
                            max(4, m // 4), bucket_bytes=bucket).schedule_ops
                        priced([Stage(0, len(profile), workers)],
                               profile, sub, bucket)
                        straight = balanced_straight_stages(profile, workers)
                        ops += pieces.model_parallel(
                            tracer, label + "mp", profile, sub, straight,
                            max(4, m // 4), bucket_bytes=bucket).schedule_ops
                        priced(straight, profile, sub, bucket)
                        ops += pieces.gpipe(
                            tracer, label + "gpipe", profile, sub, straight,
                            max(2, m // 8), bucket_bytes=bucket).schedule_ops
                        priced(straight, profile, sub, bucket)
                    for family in FAMILIES:
                        # One optimizer per cell, shared by its worker
                        # counts, as the sweep does.
                        optimizer = PipeDreamOptimizer(
                            profile, self.topology, bucket_bytes=bucket)
                        for sub in subsets:
                            workers = sub.total_workers
                            label = f"{model}/{precision}/{workers}/pipedream"
                            with tracer.span("core.partition", "solve",
                                             op=label):
                                plan = optimizer.solve(workers)
                            if plan.is_data_parallel:
                                ops += pieces.data_parallel(
                                    tracer, label, profile, sub, m,
                                    bucket_bytes=bucket).schedule_ops
                            else:
                                ops += pieces.partition(
                                    tracer, label, profile, sub, plan.stages,
                                    m, noam=plan.noam, bucket_bytes=bucket,
                                    schedule_family=family).schedule_ops
                            priced(plan.stages, profile, sub, bucket)
        spent: Dict[str, float] = defaultdict(float)
        for span in tracer.spans[first:]:
            key = f"{span.layer}:{span.name}"
            spent[key] += span.seconds
            self.calls[key] += 1
        for key, seconds in spent.items():
            self.samples["replay/" + key].append(seconds)
        self.replayed_ops = ops
        return sum(spent.values())

    # ------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Any]:
        metrics = self.item_metrics(
            self.cells, ["sweep/" + model for model in self.models])
        compute = {model: analytic_profile(model).total_compute_time
                   for model in self.models}
        metrics["cost_ratio"] = {"value": cost_ratio(
            (max(r.stage_seconds), compute[r.model] / r.workers)
            for r in self.records if r.strategy == "pipedream")}
        return metrics

    def per_layer(self) -> Dict[str, float]:
        def replayed(key: str) -> float:
            return self.seconds("replay/" + key)

        def per_call(key: str) -> float:
            rounds = len(self.samples["replay/" + key])
            return replayed(key) / (self.calls[key] / rounds)

        run_sweep_s = sum(self.seconds("sweep/" + model)
                          for model in self.models)
        ops = self.replayed_ops
        build_s = replayed("core.schedule:build")
        simulate_s = replayed("sim.executor:simulate")
        metrics = {
            "profiler.analytic_profile_ms":
                per_call("profiler:analytic_profile") * 1e3,
            "core.partition.solve_s": replayed("core.partition:solve"),
            "core.partition.solves":
                self.calls["core.partition:solve"]
                / len(self.samples["replay/core.partition:solve"]),
            "core.partition.evaluate_us":
                per_call("core.partition:evaluate") * 1e6,
            "core.partition.plan_cost_s": sum(
                max(r.stage_seconds) for r in self.records
                if r.strategy == "pipedream"),
            "core.schedule.build_s": build_s,
            "core.schedule.ops_built": ops,
            "core.schedule.us_per_op": build_s / ops * 1e6,
            "sim.executor.simulate_s": simulate_s,
            "sim.executor.ops": ops,
            "sim.executor.us_per_op": simulate_s / ops * 1e6,
            "sim.memory.footprint_us": per_call("sim.memory:footprint") * 1e6,
            "sim.sweep.run_sweep_s": run_sweep_s,
            "sim.sweep.cells": self.cells,
            "sim.sweep.self_s":
                median(self.samples["self"]) * self.reference.speed(),
            "sim.sweep.csv_ms": self.seconds("csv") * 1e3,
        }
        metrics.update(self.trace_metrics(
            ["sweep/" + model for model in self.models]))
        return metrics
