"""Command-line interface: profile, plan, simulate, and visualize.

Usage::

    python -m repro.cli models
    python -m repro.cli profile vgg16 --device v100
    python -m repro.cli plan vgg16 --cluster a --servers 4 [--json out.json]
    python -m repro.cli simulate vgg16 --cluster a --servers 4 --strategy pipedream
    python -m repro.cli simulate vgg16 --strategy gpipe --minibatches 12 --bucket-bytes 25e6
    python -m repro.cli sweep vgg16 gnmt8 --counts 4 16 --precisions fp32 fp16
    python -m repro.cli serve --port 8941
    python -m repro.cli timeline --stages 4 --minibatches 8 --schedule 1f1b
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.core.deploy import DeploymentPlan
from repro.core.partition import PipeDreamOptimizer
from repro.core.profile import PRECISION_BYTES
from repro.core.schedule import (
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_schedule,
)
from repro.core.spec import STRATEGY_NAMES, PlanSpec, SimSpec, check_scenario
from repro.core.topology import CLUSTERS
from repro.profiler import analytic_profile, available_models
from repro.sim import (
    SimOptions,
    SweepError,
    parse_faults,
    precision_chart,
    records_to_csv,
    run_sweep,
    simulate,
    simulate_strategy,
)
from repro.utils import format_table, format_timeline


def _topology(args):
    topology = CLUSTERS[args.cluster](args.servers)
    if args.workers:
        topology = topology.subset(args.workers)
    return topology


def cmd_models(args) -> int:
    rows = []
    for name in available_models():
        profile = analytic_profile(name, device=args.device)
        rows.append([
            name,
            str(len(profile)),
            str(profile.batch_size),
            f"{profile.total_weight_bytes / 1e6:.0f} MB",
            f"{profile.total_compute_time * 1e3:.1f} ms",
        ])
    print(format_table(
        ["model", "layers", "batch", "weights", "compute/minibatch"], rows
    ))
    return 0


def cmd_profile(args) -> int:
    profile = analytic_profile(args.model, batch_size=args.batch,
                               device=args.device)
    if args.json:
        with open(args.json, "w") as f:
            f.write(profile.to_json())
        print(f"wrote {args.json}")
        return 0
    rows = [
        [l.name, l.kind, f"{l.compute_time * 1e3:.2f} ms",
         f"{l.activation_bytes / 1e6:.2f} MB", f"{l.weight_bytes / 1e6:.2f} MB"]
        for l in profile
    ]
    print(format_table(["layer", "kind", "T_l", "a_l", "w_l"], rows))
    return 0


def cmd_plan(args) -> int:
    topology = _topology(args)
    profile = analytic_profile(
        args.model, device=args.device,
        bytes_per_element=PRECISION_BYTES[args.precision])
    result = PipeDreamOptimizer(
        profile, topology, **_plan_spec(args).options()).solve()
    plan = DeploymentPlan.from_partition(result)
    print(plan.describe())
    if any(s.recompute for s in result.stages):
        flagged = [str(i) for i, s in enumerate(result.stages) if s.recompute]
        print(f"recompute (activation checkpointing) on stage(s): "
              f"{', '.join(flagged)}")
    if any(s.tp_degree > 1 for s in result.stages):
        sharded = [f"{i}:{s.tp_degree}" for i, s in enumerate(result.stages)
                   if s.tp_degree > 1]
        print(f"tensor parallelism (stage:degree): {', '.join(sharded)}")
    print(f"config: {result.config_string}   "
          f"bottleneck: {result.slowest_stage_time * 1e3:.2f} ms/minibatch   "
          f"solved in {result.solve_seconds * 1e3:.0f} ms")
    if args.json:
        with open(args.json, "w") as f:
            f.write(plan.to_json())
        print(f"wrote {args.json}")
    return 0


def cmd_simulate(args) -> int:
    spec = _plan_spec(args)
    topology = _topology(args)
    profile = analytic_profile(
        args.model, device=args.device,
        bytes_per_element=PRECISION_BYTES[args.precision])
    report = None
    # A fault spec, or a fault the run's topology lacks, is a usage error.
    try:
        faults = parse_faults(args.faults, num_workers=topology.total_workers)
        sim = SimSpec(args.strategy, args.minibatches, args.schedule_family,
                      faults)
        check_scenario(spec, sim)
        if sim.faults is not None and sim.faults.halt_time is not None:
            # A crash in the schedule: run the full elastic cycle
            # (fault-free oracle, crash-interrupted run, warm re-plan,
            # resumed run) and report the recovery bill alongside the
            # resumed result.
            if args.strategy != "pipedream":
                print("--faults with a crash event requires --strategy "
                      "pipedream", file=sys.stderr)
                return 2
            from repro.runtime.elastic import ElasticCoordinator

            report = ElasticCoordinator(profile, topology).run_with_recovery(
                args.minibatches, sim.faults)
            result = report.resumed
        else:
            result = simulate_strategy(profile, topology, sim, spec)
    except ValueError as exc:
        args.error(str(exc))
    if report is not None:
        m = report.metrics
        rows = [
            ["crash (sim s)", f"{m.fault_time:.4f}"],
            ["detected (sim s)", f"{m.detection_time:.4f}"],
            ["detection latency", f"{m.detection_latency * 1e3:.1f} ms"],
            ["re-plan (wall)", f"{m.replan_wall_seconds * 1e3:.2f} ms"],
            ["surviving workers", str(m.surviving_workers)],
            ["recovery plan", m.plan_config],
            ["minibatches kept", str(m.minibatches_completed)],
            ["minibatches re-run", str(m.minibatches_resumed)],
            ["oracle (sim s)", f"{m.oracle_seconds:.4f}"],
            ["recovery total (sim s)", f"{m.recovery_total_seconds:.4f}"],
            ["minibatches lost", f"{m.minibatches_lost:.2f}"],
        ]
        print(format_table(["recovery metric", "value"], rows))
    rows = [
        ["strategy", result.strategy],
        ["config", result.config],
        ["workers", str(result.num_workers)],
        ["throughput", f"{result.throughput:.2f} minibatches/s"],
        ["samples/s", f"{result.samples_per_second:,.0f}"],
        ["comm overhead", f"{result.communication_overhead:.1%}"],
        ["bytes/sample", f"{result.bytes_per_sample / 1e6:.2f} MB"],
        ["peak worker memory", f"{max(result.memory_per_worker) / 1e9:.2f} GB"],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_sweep(args) -> int:
    """Figure-12-style grid: models x worker counts x strategies x precisions."""
    spec = _plan_spec(args)
    topology = CLUSTERS[args.cluster](args.servers)
    try:
        records = run_sweep(
            args.models,
            topology,
            args.counts,
            strategies=tuple(args.strategies),
            device=args.device,
            minibatches=args.minibatches,
            precisions=tuple(args.precisions),
            bucket_sizes=tuple(args.bucket_sizes),
            recomputes=tuple(args.recomputes),
            schedule_families=tuple(args.schedule_families),
            memory_limit_bytes=spec.memory_limit_bytes,
            tp_degrees=spec.tp_degrees,
        )
    # A per-cell spec the grid cannot build, or cells that cannot plan.
    except (ValueError, SweepError) as exc:
        args.error(str(exc))
    rows = [
        [r.model, str(r.workers), r.strategy, r.precision,
         "-" if r.bucket_bytes is None else f"{r.bucket_bytes / 1e6:g}MB",
         r.recompute or "-", r.schedule_family, r.config,
         f"{r.samples_per_second:,.0f}", f"{r.communication_overhead:.1%}",
         f"{r.allreduce_seconds * 1e3:.2f} ms",
         f"{max(r.stage_memory_bytes) / 1e9:.2f} GB"]
        for r in records
    ]
    print(format_table(
        ["model", "workers", "strategy", "precision", "bucket", "recompute",
         "schedule", "config", "samples/s", "comm", "allreduce/round",
         "peak stage mem"], rows
    ))
    if args.csv:
        records_to_csv(records, args.csv)
        print(f"wrote {args.csv}")
    if args.svg:
        chart = precision_chart(records, metric=args.metric)
        chart.save(args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_serve(args) -> int:
    """Run the planner HTTP service until SIGINT or SIGTERM, then stop
    gracefully (see :meth:`PlannerHTTPServer.server_close`) and exit 0."""
    from repro.serve import PlannerService, make_server

    service = PlannerService(
        plan_cache_size=args.plan_cache,
        context_capacity=args.context_capacity,
        warm_start=not args.cold,
    )
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"planner service listening on http://{host}:{port} "
          f"(plan cache {args.plan_cache}, "
          f"warm start {'off' if args.cold else 'on'})")
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        signal.signal(signal.SIGTERM, previous)
    return 0


def cmd_timeline(args) -> int:
    from repro.core.profile import LayerProfile, ModelProfile
    from repro.core.topology import make_cluster

    layers = [LayerProfile(f"l{i}", 3.0, 0, 0) for i in range(args.stages)]
    profile = ModelProfile("uniform", layers, batch_size=1)
    topology = make_cluster("cli", args.stages, 1, 1e9, 1e9)
    if args.schedule == "1f1b":
        schedule = one_f_one_b_schedule(args.stages, args.minibatches)
        options = SimOptions()
    elif args.schedule == "gpipe":
        micro = max(2, args.stages)
        schedule = gpipe_schedule(args.stages, max(1, args.minibatches // micro), micro)
        options = SimOptions(sync_mode="gpipe", microbatches_per_batch=micro)
    else:  # mp
        schedule = model_parallel_schedule(args.stages, args.minibatches)
        options = SimOptions()
    sim = simulate(schedule, profile, topology, options)
    print(format_timeline(sim, width=args.width))
    print(f"utilization: {sim.average_utilization:.1%}   "
          f"steady-state throughput: {sim.steady_state_throughput:.3f}/s")
    return 0


def _plan_spec(args) -> PlanSpec:
    """The solver options of a ``plan`` / ``simulate`` / ``sweep`` call.

    ``sweep`` states its shared options here and leaves the per-cell axes
    (``--bucket-sizes``, ``--recomputes``) to :func:`run_sweep`.  An
    invalid value or combination exits 2 with the spec's message.
    """
    try:
        return PlanSpec(
            memory_limit_bytes=args.memory_limit_bytes,
            bucket_bytes=getattr(args, "bucket_bytes", None),
            recompute=getattr(args, "recompute", None),
            tp_degrees=args.tp_degrees,
        )
    except ValueError as exc:
        args.error(str(exc))


def _axis_value(text: str) -> Optional[str]:
    """Sweep axis value: 'none' / 'off' select the axis's default."""
    return None if text.lower() in ("none", "off") else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PipeDream reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list the full-size paper models")
    p.add_argument("--device", default="v100", choices=["v100", "1080ti", "titanx"])
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("profile", help="print or save a model profile")
    p.add_argument("model", choices=available_models())
    p.add_argument("--batch", type=int, default=0)
    p.add_argument("--device", default="v100", choices=["v100", "1080ti", "titanx"])
    p.add_argument("--json", help="write the profile to this file")
    p.set_defaults(func=cmd_profile)

    def add_cluster_args(p):
        p.add_argument("--cluster", default="a", choices=sorted(CLUSTERS))
        p.add_argument("--servers", type=int, default=4)
        p.add_argument("--workers", type=int, default=0,
                       help="restrict to the first N workers")
        p.add_argument("--device", default="v100",
                       choices=["v100", "1080ti", "titanx"])

    p = sub.add_parser("plan", help="run the partitioning optimizer")
    p.add_argument("model", choices=available_models())
    add_cluster_args(p)
    p.add_argument("--precision", default="fp32", choices=sorted(PRECISION_BYTES),
                   help="element width the profile (and plan) assumes")
    p.add_argument("--bucket-bytes", type=float, default=None,
                   help="gradient-fusion cap in bytes: plan with DDP-style "
                        "bucketed, backward-overlapped weight sync "
                        "(default: one monolithic per-round payload)")
    p.add_argument("--memory-limit-bytes", type=float, default=None,
                   help="per-worker §3.3 memory cap the plan must satisfy")
    p.add_argument("--recompute", default=None, metavar="auto",
                   help="'auto' lets the planner turn activation "
                        "checkpointing on per stage when the memory cap "
                        "demands it (requires --memory-limit-bytes)")
    p.add_argument("--tp-degrees", type=int, nargs="+", default=None,
                   metavar="T",
                   help="tensor-parallel degrees the planner may assign per "
                        "stage (e.g. 1 2 4); omit for the pure 2D planner")
    p.add_argument("--json", help="write the deployment plan to this file")
    p.set_defaults(func=cmd_plan, error=p.error)

    p = sub.add_parser("simulate", help="simulate a training strategy")
    p.add_argument("model", choices=available_models())
    add_cluster_args(p)
    p.add_argument("--strategy", default="pipedream", choices=STRATEGY_NAMES)
    p.add_argument("--minibatches", type=int, default=48,
                   help="run length, literal for every strategy (gpipe: "
                        "batches of 4 microbatches)")
    p.add_argument("--precision", default="fp32", choices=sorted(PRECISION_BYTES),
                   help="element width the profile is converted to")
    p.add_argument("--bucket-bytes", type=float, default=None,
                   help="gradient-fusion cap in bytes: simulate with "
                        "bucketed, backward-overlapped weight sync")
    p.add_argument("--memory-limit-bytes", type=float, default=None,
                   help="per-worker memory cap for the pipedream planner")
    p.add_argument("--recompute", default=None, metavar="auto",
                   help="let the pipedream planner checkpoint stages under "
                        "the memory cap")
    p.add_argument("--schedule-family", default="1f1b",
                   choices=["1f1b", "2bp"],
                   help="pipeline schedule family: classic 1F1B or the "
                        "backward-split 2BP (pipedream strategy only)")
    p.add_argument("--tp-degrees", type=int, nargs="+", default=None,
                   metavar="T",
                   help="tensor-parallel degrees the pipedream planner may "
                        "assign per stage (pipedream strategy only)")
    p.add_argument("--faults", default="",
                   help="fault spec: 'crash@T:wK', 'slow@T:wK:xF:dD', "
                        "'bw@T:xF:dD[:wK][:lL]' (comma-joined), or "
                        "'seed=N[:crashes=..][:stragglers=..]"
                        "[:degradations=..][:horizon=..]'; a crash "
                        "triggers the elastic recovery cycle")
    p.set_defaults(func=cmd_simulate, error=p.error)

    p = sub.add_parser(
        "sweep", help="fp16/fp32 figure-12 grid over models x worker counts")
    p.add_argument("models", nargs="+", choices=available_models())
    p.add_argument("--cluster", default="a", choices=sorted(CLUSTERS))
    p.add_argument("--servers", type=int, default=4)
    p.add_argument("--counts", type=int, nargs="+", default=[4, 8, 16],
                   help="worker counts to sweep")
    p.add_argument("--strategies", nargs="+", default=["dp", "pipedream"],
                   choices=STRATEGY_NAMES)
    p.add_argument("--precisions", nargs="+", default=["fp32", "fp16"],
                   choices=sorted(PRECISION_BYTES))
    p.add_argument("--bucket-sizes", nargs="+", type=_axis_value,
                   default=[None], metavar="BYTES|none",
                   help="gradient-fusion caps to sweep ('none' = monolithic "
                        "per-round payload)")
    p.add_argument("--recomputes", nargs="+", type=_axis_value,
                   default=[None], metavar="auto|none",
                   help="planner recompute policies to sweep (pipedream "
                        "cells; 'auto' needs --memory-limit-bytes to bite)")
    p.add_argument("--schedule-families", nargs="+", default=["1f1b"],
                   choices=["1f1b", "2bp"],
                   help="schedule families to sweep (pipedream cells)")
    p.add_argument("--memory-limit-bytes", type=float, default=None,
                   help="per-worker memory cap for pipedream cells")
    p.add_argument("--tp-degrees", type=int, nargs="+", default=None,
                   metavar="T",
                   help="tensor-parallel degrees pipedream cells may assign "
                        "per stage")
    p.add_argument("--device", default="v100",
                   choices=["v100", "1080ti", "titanx"])
    p.add_argument("--minibatches", type=int, default=48)
    p.add_argument("--metric", default="samples_per_second",
                   help="SweepRecord field plotted by --svg")
    p.add_argument("--csv", help="write the records to this CSV file")
    p.add_argument("--svg", help="write a precision comparison chart here")
    p.set_defaults(func=cmd_sweep, error=p.error)

    p = sub.add_parser(
        "serve", help="run the plan/simulate/sweep HTTP service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8941,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--plan-cache", type=int, default=512,
                   help="canonical response-cache entries (0 disables)")
    p.add_argument("--context-capacity", type=int, default=16,
                   help="profiles kept warm in the solver-context pool")
    p.add_argument("--cold", action="store_true",
                   help="disable warm-started solves (benchmark baseline)")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("timeline", help="print an ASCII pipeline timeline")
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--minibatches", type=int, default=8)
    p.add_argument("--schedule", default="1f1b", choices=["1f1b", "gpipe", "mp"])
    p.add_argument("--width", type=int, default=78)
    p.set_defaults(func=cmd_timeline)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
