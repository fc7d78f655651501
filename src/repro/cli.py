"""Command-line interface: profile, plan, simulate, and visualize.

Usage::

    python -m repro.cli models
    python -m repro.cli profile vgg16 --device v100
    python -m repro.cli plan vgg16 --cluster a --servers 4 [--json out.json] [--trace solve.json]
    python -m repro.cli simulate vgg16 --cluster a --servers 4 --strategy pipedream [--trace run.json]
    python -m repro.cli simulate vgg16 --strategy gpipe --minibatches 12 --bucket-bytes 25e6
    python -m repro.cli sweep vgg16 gnmt8 --counts 4 16 --precisions fp32 fp16
    python -m repro.cli serve --port 8941
    python -m repro.cli timeline --stages 4 --minibatches 8 --schedule 1f1b
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.profile import PRECISION_BYTES
from repro.core.spec import (FIELDS, PLAN_FIELDS, SIM_FIELDS, SWEEP_OPTIONS,
                              Field, PlanSpec, SimSpec, check_scenario)
from repro.core.topology import CLUSTERS
from repro.profiler import analytic_profile, available_models


def _topology(args):
    """The ``--cluster`` / ``--servers`` topology, cut to ``--workers``."""
    topology = CLUSTERS[args.cluster](args.servers)
    workers = getattr(args, "num_workers", None)
    return topology if workers is None else topology.subset(workers)


def _profile(args):
    return analytic_profile(args.model, device=args.device,
                            bytes_per_element=PRECISION_BYTES[args.precision])


def _check_outputs(args, *flags) -> None:
    """Exit 2 naming the flag when an output path among ``flags`` cannot
    be written, before any work runs and without creating a file."""
    for flag in flags:
        path = getattr(args, flag)
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            why = f"no such directory {folder!r}"
        elif os.path.isdir(path):
            why = "it is a directory"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            why = "permission denied"
        else:
            continue
        args.error(f"argument --{flag}: cannot write {path!r}: {why}")


def _traced(args, work):
    """``(work(), spans)``: with ``--trace``, the spans ``work`` recorded
    (the registry is left as found), else None."""
    if args.trace is None:
        return work(), None
    from repro.utils import obs

    first, was_enabled = len(obs.registry.spans), obs.registry.enabled
    obs.enable()
    try:
        result = work()
    finally:
        if not was_enabled:
            obs.disable()
    return result, obs.registry.spans[first:]


def _write_trace(path, spans) -> None:
    """Write ``spans`` to ``path`` as Chrome trace events (no-op for None)."""
    if path is None:
        return
    import json

    from repro.sim.trace import span_trace_events

    with open(path, "w") as f:
        json.dump({"traceEvents": span_trace_events(spans)}, f)
    print(f"wrote {path} ({len(spans)} spans)")


def cmd_models(args) -> int:
    from repro.utils import format_table

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
    from repro.utils import format_table

    _check_outputs(args, "json")
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
    from repro.core.deploy import DeploymentPlan
    from repro.core.partition import PipeDreamOptimizer

    _check_outputs(args, "json", "trace")
    optimizer = PipeDreamOptimizer(_profile(args), _topology(args),
                                   **_plan_spec(args).options())
    result, spans = _traced(args, optimizer.solve)
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
    _write_trace(args.trace, spans)
    return 0


def cmd_simulate(args) -> int:
    from repro.sim import parse_faults, simulate_strategy
    from repro.utils import format_table

    _check_outputs(args, "trace")
    spec = _plan_spec(args)
    topology = _topology(args)
    profile = _profile(args)
    sim = _sim_spec(args, parse_faults(args.faults, topology.total_workers))
    check_scenario(spec, sim)

    def run():
        if sim.faults is None or sim.faults.halt_time is None:
            return simulate_strategy(profile, topology, sim, spec), None
        # A crash in the schedule: run the full elastic cycle (fault-free
        # oracle, crash-interrupted run, warm re-plan, resumed run) and
        # report the recovery bill alongside the resumed result.
        if args.strategy != "pipedream":
            args.error("--faults with a crash event requires "
                       "--strategy pipedream")
        from repro.runtime.elastic import ElasticCoordinator

        report = ElasticCoordinator(profile, topology).run_with_recovery(
            args.minibatches, sim.faults)
        return report.resumed, report

    (result, report), spans = _traced(args, run)
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
    _write_trace(args.trace, spans)
    return 0


def cmd_sweep(args) -> int:
    """Figure-12-style grid: models x worker counts x strategies x precisions."""
    from repro.sim import precision_chart, records_to_csv, run_sweep
    from repro.utils import format_table

    _check_outputs(args, "csv", "svg")
    topology = _topology(args)
    records = run_sweep(args.models, topology, args.counts,
                        **_given(args, SWEEP_OPTIONS))
    if not records:
        args.error(f"no worker count in {list(args.counts)} packs onto the "
                   f"{topology.total_workers}-worker cluster")
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
    from repro.core.schedule import (gpipe_schedule, model_parallel_schedule,
                                     one_f_one_b_schedule)
    from repro.core.topology import make_cluster
    from repro.sim import SimOptions, simulate
    from repro.utils import format_timeline

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


def _given(args, names) -> dict:
    """The fields ``names`` this subcommand has, by name."""
    return {name: value for name, value in vars(args).items() if name in names}


def _plan_spec(args) -> PlanSpec:
    return PlanSpec(**_given(args, PLAN_FIELDS))


def _sim_spec(args, faults=None) -> SimSpec:
    return SimSpec(**_given(args, SIM_FIELDS), faults=faults)


def _add(parser: argparse.ArgumentParser, field) -> None:
    """Add a :data:`~repro.core.spec.FIELDS` row (or a CLI-only
    :class:`Field`) to ``parser``: its flag, type, bounds, choices,
    default and help.  A word the row refuses exits 2 with ``argument
    --flag: <the row's message>``."""
    field = FIELDS[field] if isinstance(field, str) else field

    def parse(text: str):
        try:
            return field.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    flag = field.flag or "--" + field.name.replace("_", "-")
    keywords = {} if not flag.startswith("-") else {
        "dest": field.name, "default": field.default}
    parser.add_argument(flag, type=parse, choices=field.choices,
                        nargs="+" if field.many else None, help=field.help,
                        **keywords)


class _SweepMetrics:
    """``--metric``'s choices: the scalar numeric ``SweepRecord`` fields,
    read on first use so that building the parser loads no simulator."""

    def __iter__(self):
        from dataclasses import fields

        from repro.sim.sweep import SweepRecord

        return (f.name for f in fields(SweepRecord)
                if f.type in ("int", "float"))


_WHERE = ("cluster", "servers", "num_workers", "device")
_PLAN_ARGV = ("precision", "bucket_bytes", "memory_limit_bytes", "recompute",
              "tp_degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PipeDream reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, fields=(), **defaults):
        p = sub.add_parser(name, help=help)
        for field in fields:
            _add(p, field)
        p.set_defaults(func=func, error=p.error, **defaults)
        return p

    command("models", cmd_models, "list the full-size paper models",
            ["device"])
    p = command("profile", cmd_profile, "print or save a model profile", [
        "model", Field("batch", int, 0, "batch size (0 = the paper's)", lo=0),
        "device"])
    p.add_argument("--json", help="write the profile to this file")
    p = command("plan", cmd_plan, "run the partitioning optimizer",
                ("model",) + _WHERE + _PLAN_ARGV)
    p.add_argument("--json", help="write the deployment plan to this file")
    p.add_argument("--trace", help="write the solve's phase spans here as "
                   "Chrome trace events (chrome://tracing, Perfetto)")
    p = command("simulate", cmd_simulate, "simulate a training strategy",
                ("model",) + _WHERE + _PLAN_ARGV
                + ("strategy", "minibatches", "schedule_family", "faults"))
    p.add_argument("--trace", help="write the run's spans (solve and "
                   "simulation phases) here as Chrome trace events")
    # The CLI sweeps fp32 and fp16 by default; run_sweep and the service
    # sweep fp32 alone.
    p = command(
        "sweep", cmd_sweep,
        "fp16/fp32 figure-12 grid over models x worker counts",
        ["models", "cluster", "servers", "counts", "strategies",
         "precisions", "bucket_sizes", "recomputes", "schedule_families",
         "memory_limit_bytes", "tp_degrees", "device", "minibatches"],
        precisions=("fp32", "fp16"))
    _add(p, Field("metric", str, "samples_per_second",
                  "SweepRecord field plotted by --svg",
                  choices=_SweepMetrics()))
    p.add_argument("--csv", help="write the records to this CSV file")
    p.add_argument("--svg", help="write a precision comparison chart here")

    p = command("serve", cmd_serve,
                "run the plan/simulate/sweep HTTP service", [
        Field("plan_cache", int, 512,
              "canonical response-cache entries (0 disables)", lo=0),
        Field("context_capacity", int, 16,
              "profiles kept warm in the solver-context pool", lo=0),
    ])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8941,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--cold", action="store_true",
                   help="disable warm-started solves (benchmark baseline)")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request to stderr as one JSON line")

    command("timeline", cmd_timeline, "print an ASCII pipeline timeline", [
        Field("stages", int, 4, "pipeline stages", lo=1),
        replace(FIELDS["minibatches"], default=8,
                help="run length in minibatches"),
        Field("schedule", str, "1f1b", "schedule to draw",
              choices=("1f1b", "gpipe", "mp")),
        Field("width", int, 78, "timeline columns", lo=1),
    ])

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # What the library refuses is a usage error, exit 2 with its message:
    # a ValueError (a spec, a topology, a fault, a run length), a plan no
    # partition satisfies (the planner's RuntimeError) or a sweep whose
    # cells cannot plan (a SweepError, also a RuntimeError).
    except (ValueError, RuntimeError) as exc:
        args.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
