"""Workload ``simulate_scale``: the simulator does ~100 % of the work.

Hand-built stage lists (no solve anywhere) on a 66-layer synthetic
profile at 64 workers, run through the public strategy drivers.  The
eight scenarios take different engine paths — round commits, bucketed
collectives, piecewise fault integration, W-op fill, a 64-deep straight
pipeline, a 2x32 wide one, BSP data parallelism, GPipe flushes — so a
fast path for one that taxes another shows.  Sized so that each scenario
simulates tens of thousands of schedule ops and us/op is measurable.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

from repro.api import (
    cluster_a,
    simulate_data_parallel,
    simulate_gpipe,
    simulate_partition,
)
from repro.sim import parse_faults

import pieces
from common import RoundWorkload, cost_ratio, median
from inputs import even_stages, synthetic_profile


class Scenario:
    """One simulation: the composite driver call and its replay as pieces."""

    def __init__(self, name: str, composite: Callable[[], Any],
                 replay: Callable[[Any, str], Any], minibatches: int,
                 ideal_s: float):
        self.name = name
        self.composite = composite
        self.replay = replay
        self.minibatches = minibatches  # completions a full run must log
        self.ideal_s = ideal_s  # perfect-balance, zero-communication time
        self.ops = 0
        self.total_time = 0.0


class Workload(RoundWorkload):
    def __init__(self, seed: int, quick: bool):
        super().__init__()
        rng = random.Random(seed)
        layers, servers, m = (18, 2, 48) if quick else (66, 16, 768)
        topology = cluster_a(servers)
        workers = topology.total_workers
        profile = synthetic_profile(layers, rng, f"decoder{layers}")
        compute = profile.total_compute_time
        grid = even_stages(layers, workers // 4, 4)
        straight = even_stages(layers, min(workers, layers), 1)
        wide = even_stages(layers, 2, workers // 2)
        self.fault_seed = rng.randrange(1 << 30)
        self.faults = None
        micro = 4

        def partition(name, stages, minibatches, **options):
            def keywords():
                return dict(options, faults=self.faults) \
                    if name == "faults" else options
            return Scenario(
                name,
                lambda: simulate_partition(profile, topology, stages,
                                           minibatches, **keywords()),
                lambda tracer, label: pieces.partition(
                    tracer, label, profile, topology, stages, minibatches,
                    **keywords()),
                minibatches, minibatches * compute / workers)

        self.scenarios: List[Scenario] = [
            partition("plain", grid, m),
            partition("bucketed", grid, m, bucket_bytes=25e6),
            partition("faults", grid, m),
            partition("2bp", grid, m, schedule_family="2bp"),
            partition("straight64", straight, m),
            partition("wide2x32", wide, 8 * m),
            Scenario(
                "bsp_dp",
                lambda: simulate_data_parallel(profile, topology, m // 2),
                lambda tracer, label: pieces.data_parallel(
                    tracer, label, profile, topology, m // 2),
                m // 2, (m // 2) * compute),
            Scenario(
                "gpipe",
                lambda: simulate_gpipe(profile, topology, straight,
                                       num_batches=m // 8,
                                       num_microbatches=micro),
                lambda tracer, label: pieces.gpipe(
                    tracer, label, profile, topology, straight, m // 8,
                    micro),
                (m // 8) * micro, (m // 8) * compute / len(straight)),
        ]
        self.workers = workers

    def run_round(self, decompose: bool) -> float:
        tracer, primary = self.tracer, 0.0
        for scenario in self.scenarios:
            self.reference.tick()
            name = scenario.name
            if name == "faults" and self.faults is None:
                # Faults must land inside the run, and only a simulation
                # tells how long it is: the warm-up round's fault-free
                # twin sets the horizon.
                self.faults = parse_faults(
                    f"seed={self.fault_seed}:crashes=0:stragglers=4"
                    ":degradations=2", num_workers=self.workers,
                    horizon=0.8 * self.scenarios[0].total_time)
            with tracer.span("sim.strategies", "simulate", op=name) as span:
                sim = scenario.composite().sim
            self.samples["composite/" + name].append(span.seconds)
            primary += span.seconds
            ops, total_time = len(sim.raw_records), sim.total_time
            if not scenario.ops:
                scenario.ops, scenario.total_time = ops, total_time
            self.check(
                sim.halted_at is None
                and len(sim.minibatch_done) == scenario.minibatches
                and ops == scenario.ops
                and total_time == scenario.total_time,
                name)
            # The timeline is garbage from here on; holding ~100k records
            # through the replay would tax its allocations with GC passes
            # the composite never paid.
            del sim
            if decompose:
                replay = scenario.replay(tracer, name)
                self.samples["build/" + name].append(replay.build_s)
                self.samples["simulate/" + name].append(replay.simulate_s)
                # Taken pairwise, within seconds of each other, so that a
                # slow spell of the machine cancels out of the difference.
                self.samples["self/" + name].append(
                    span.seconds - replay.build_s - replay.simulate_s)
                self.check(
                    replay.result.total_time == total_time
                    and len(replay.result.raw_records) == ops
                    and replay.schedule_ops == ops,
                    name + " (replayed as pieces)")
                del replay
        return primary

    # ------------------------------------------------------------------
    def times(self, prefix: str) -> Dict[str, float]:
        return {s.name: self.seconds(prefix + s.name) for s in self.scenarios}

    def end_to_end(self) -> Dict[str, Any]:
        metrics = self.item_metrics(
            sum(s.ops for s in self.scenarios),
            ["composite/" + s.name for s in self.scenarios])
        metrics["cost_ratio"] = {"value": cost_ratio(
            (s.total_time, s.ideal_s) for s in self.scenarios)}
        return metrics

    def per_layer(self) -> Dict[str, float]:
        build = self.times("build/")
        simulate = self.times("simulate/")
        ops = sum(s.ops for s in self.scenarios)
        build_s, simulate_s = sum(build.values()), sum(simulate.values())
        metrics = {
            "core.schedule.build_s": build_s,
            "core.schedule.ops_built": ops,
            "core.schedule.us_per_op": build_s / ops * 1e6,
            "sim.executor.simulate_s": simulate_s,
            "sim.executor.ops": ops,
            "sim.executor.us_per_op": simulate_s / ops * 1e6,
            "sim.executor.simulated_s":
                sum(s.total_time for s in self.scenarios),
            "sim.strategies.self_s": self.reference.speed() * sum(
                median(self.samples["self/" + s.name])
                for s in self.scenarios),
        }
        for s in self.scenarios:
            metrics["sim.executor.us_per_op." + s.name] = (
                simulate[s.name] / s.ops * 1e6)
        metrics.update(self.trace_metrics(
            ["composite/" + s.name for s in self.scenarios]))
        return metrics
