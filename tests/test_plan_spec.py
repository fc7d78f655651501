"""``PlanSpec`` and ``SimSpec``: one statement, one validation, one key
for the solver options and for the simulate side.

Four layers of evidence that every surface reads the same value:

(a) unit — normalisation, hashing and the single rejection site;
(b) hypothesis — ``options()`` round-trips and ``key()`` is injective;
(c) cross-surface — optimizer, service, sweep and CLI name one plan, and
    dispatcher, service, sweep and CLI simulate one scenario;
(d) golden — sweep CSV and service payloads captured at the commit before
    ``PlanSpec`` existed (``tests/fixtures/plan_spec``) stay byte-equal.
    Regenerate with ``PYTHONPATH=src python tests/test_plan_spec.py``.
"""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.partition import PipeDreamOptimizer
from repro.core.spec import STRATEGY_NAMES, PlanSpec, SimSpec, check_scenario
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.serve import PlannerService, RequestError
from repro.sim import (
    FaultEvent,
    FaultSchedule,
    records_to_csv,
    run_sweep,
    simulate_pipedream,
    simulate_strategy,
)
from repro.sim.strategies import grid_minibatches

FIXTURES = Path(__file__).parent / "fixtures" / "plan_spec"

VGG = {"model": "vgg16", "cluster": "a", "servers": 1}

#: A two-level cluster with per-collective setup latency, so that
#: ``bucket_bytes`` changes DP table values and not only the simulation.
ALPHA_TOPOLOGY = {
    "name": "alpha",
    "levels": [
        {"count": 4, "bandwidth": 12e9, "allreduce_efficiency": 0.1,
         "allreduce_latency": 5e-5},
        {"count": 2, "bandwidth": 1.25e9, "allreduce_efficiency": 0.25,
         "allreduce_latency": 2e-4},
    ],
}

GNMT_TP = {"model": "gnmt16", "cluster": "a", "servers": 4,
           "tp_degrees": [1, 2], "memory_limit_bytes": 2e9,
           "recompute": "auto"}

#: (endpoint, body) pairs covering every planning axis on every endpoint.
GOLDEN_REQUESTS = [
    ("plan", VGG),
    ("plan", {"model": "gnmt8", "cluster": "a", "servers": 4,
              "num_workers": 8, "memory_limit_bytes": 16e9,
              "precision": "fp16"}),
    ("plan", {"model": "vgg16", "topology": ALPHA_TOPOLOGY,
              "bucket_bytes": 25e6}),
    ("plan", GNMT_TP),
    ("plan", {"model": "gnmt16", "cluster": "a", "servers": 4,
              "memory_limit_bytes": 2.2e9, "recompute": "auto",
              "allow_replication": False}),
    ("plan", dict(VGG, allow_replication=False)),
    ("plan", {"model": "gnmt8", "cluster": "a", "servers": 2,
              "memory_limit_bytes": 16e9, "memory_refine": False}),
    ("plan", {"model": "vgg16", "cluster": "c", "servers": 4,
              "tp_degrees": [1], "recompute": "auto"}),
    ("simulate", dict(VGG, minibatches=16)),
    ("simulate", {"model": "gnmt8", "cluster": "a", "servers": 2,
                  "minibatches": 16, "schedule_family": "2bp",
                  "bucket_bytes": 25e6}),
    ("simulate", {"model": "vgg16", "topology": ALPHA_TOPOLOGY,
                  "strategy": "dp", "minibatches": 16,
                  "bucket_bytes": 1e7, "precision": "fp16"}),
    ("batch", [VGG, {"model": "nope"}, GNMT_TP,
               dict(VGG, memory_limit_bytes=1e6), VGG]),
    ("sweep", {"models": ["gnmt8"], "cluster": "a", "servers": 2,
               "counts": [4, 8], "minibatches": 16,
               "strategies": ["dp", "pipedream"],
               "recomputes": [None, "auto"], "schedule_families": ["2bp"],
               "memory_limit_bytes": 1.2e9, "tp_degrees": [1, 2]}),
    ("sweep", {"models": ["vgg16"], "topology": ALPHA_TOPOLOGY,
               "counts": [8], "minibatches": 16,
               "strategies": ["pipedream", "gpipe"],
               "precisions": ["fp16"], "bucket_sizes": [None, 25e6]}),
]


# ----------------------------------------------------------------------
# (a) unit
# ----------------------------------------------------------------------

#: Every combination the spec rejects, as constructor keywords.
REJECTED = [
    {"memory_limit_bytes": float("nan")},
    {"memory_limit_bytes": float("inf")},
    {"memory_limit_bytes": 0},
    {"memory_limit_bytes": -5},
    {"bucket_bytes": float("nan")},
    {"bucket_bytes": 0},
    {"bucket_bytes": -1e6},
    {"recompute": "always"},
    {"recompute": "auto", "memory_refine": False},
    {"tp_degrees": (0, 2)},
    {"tp_degrees": (1.5,)},
    {"tp_degrees": (1, 2), "bucket_bytes": 25e6},
]


#: Every combination ``SimSpec`` rejects, as constructor keywords.
SIM_REJECTED = [
    {"strategy": "zero-bubble"},
    {"strategy": None},
    {"schedule_family": "zb-h1"},
    {"minibatches": 0},
    {"minibatches": -3},
    {"minibatches": True},
    {"minibatches": "48"},
    {"minibatches": 4.0},
    {"strategy": "gpipe", "schedule_family": "2bp"},
    {"strategy": "dp", "schedule_family": "2bp"},
]


def _sweep_with(bucket_bytes=None, recompute=None, **shared):
    return run_sweep(["vgg16"], cluster_a(1), [4],
                     bucket_sizes=(bucket_bytes,), recomputes=(recompute,),
                     **shared)


#: Every Python surface that accepts the options, as ``f(**options)``.
SURFACES = {
    "spec": PlanSpec,
    "optimizer": lambda **o: PipeDreamOptimizer(
        analytic_profile("vgg16"), cluster_a(1), **o),
    "simulate": lambda **o: simulate_pipedream(
        analytic_profile("vgg16"), cluster_a(1), spec=PlanSpec(**o)),
    "sweep": _sweep_with,
}


class TestUnit:
    def test_default_key_is_empty(self):
        assert PlanSpec().key() == ()
        assert PlanSpec(None, True, True, None, None, None) == PlanSpec()

    def test_key_names_the_non_default_fields_in_field_order(self):
        spec = PlanSpec(tp_degrees=[2, 1], memory_limit_bytes=4,
                        recompute="auto")
        assert spec.key() == (("memory_limit_bytes", 4.0),
                              ("recompute", "auto"), ("tp_degrees", (1, 2)))
        assert isinstance(spec.memory_limit_bytes, float)

    @pytest.mark.parametrize("menu", [None, (), (1,), [1, 1]])
    def test_degenerate_tp_menus_are_one_spec(self, menu):
        spec = PlanSpec(tp_degrees=menu, bucket_bytes=1e6)  # tp is off
        assert spec == PlanSpec(bucket_bytes=1e6)
        assert hash(spec) == hash(PlanSpec(bucket_bytes=1e6))
        assert spec.tp_degrees is None

    def test_infinite_bucket_is_legal(self):
        assert PlanSpec(bucket_bytes=math.inf).bucket_bytes == math.inf

    @pytest.mark.parametrize("surface", sorted(SURFACES))
    @pytest.mark.parametrize("options", REJECTED,
                             ids=lambda o: ",".join(map(str, o.values())))
    def test_rejections_come_from_spec_py(self, surface, options):
        if surface == "sweep" and "memory_refine" in options:
            pytest.skip("sweep has no memory_refine option")
        with pytest.raises(ValueError) as excinfo:
            SURFACES[surface](**options)
        files = [Path(str(entry.path)).name for entry in excinfo.traceback]
        assert "spec.py" in files
        assert files[-1] in ("spec.py", "sharding.py")  # validate_tp_degrees

    @pytest.mark.parametrize("options", SIM_REJECTED,
                             ids=lambda o: ",".join(map(str, o.values())))
    def test_sim_rejections_come_from_spec_py(self, options):
        with pytest.raises(ValueError) as excinfo:
            SimSpec(**options)
        assert Path(str(excinfo.traceback[-1].path)).name == "spec.py"

    def test_sim_spec_defaults_and_key(self):
        assert SimSpec() == SimSpec("pipedream", 48, "1f1b", None)
        assert SimSpec().key() == ("pipedream", 48, "1f1b", None)
        crash = FaultSchedule([FaultEvent("crash", 0.5, 1)])
        assert SimSpec(faults=crash).key()[-1] == crash.signature()
        # An empty fault schedule is no faults: one spec, one key.
        assert SimSpec(faults=FaultSchedule()) == SimSpec()

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_scenario_rule_reads_only_bucket_bytes_without_a_plan(
            self, strategy):
        sim = SimSpec(strategy)
        check_scenario(PlanSpec(bucket_bytes=25e6), sim)
        for options in ({"memory_limit_bytes": 1e9}, {"recompute": "auto"},
                        {"tp_degrees": (1, 2)}, {"allow_replication": False},
                        {"memory_refine": False}):
            if strategy == "pipedream":
                check_scenario(PlanSpec(**options), sim)
                continue
            with pytest.raises(ValueError, match=next(iter(options))):
                check_scenario(PlanSpec(**options), sim)
            with pytest.raises(ValueError, match=next(iter(options))):
                simulate_strategy(analytic_profile("vgg16"), cluster_a(1),
                                  sim, PlanSpec(**options))

    def test_effective_spec_keys_the_optimizer_namespace(self):
        profile, topology = analytic_profile("vgg16"), cluster_a(1)
        plain = PipeDreamOptimizer(profile, topology)
        inert = PipeDreamOptimizer(profile, topology, recompute="auto",
                                   tp_degrees=(1,))
        live = PipeDreamOptimizer(profile, topology, recompute="auto",
                                  memory_limit_bytes=16e9)
        assert inert.spec.recompute == "auto"  # the spec keeps what was asked
        assert plain._cache_ns == inert._cache_ns == (1.0,)
        assert live._cache_ns == (1.0,) + live.spec.key()


# ----------------------------------------------------------------------
# (b) hypothesis
# ----------------------------------------------------------------------

positive = st.one_of(
    st.floats(min_value=1e-3, max_value=1e13, allow_nan=False),
    st.integers(min_value=1, max_value=10 ** 12),
)


@st.composite
def specs(draw):
    refine = draw(st.booleans())
    degrees = draw(st.none() | st.lists(st.integers(1, 8), max_size=4))
    tp_live = degrees is not None and set(degrees) - {1}
    return PlanSpec(
        memory_limit_bytes=draw(st.none() | positive),
        allow_replication=draw(st.booleans()),
        memory_refine=refine,
        bucket_bytes=(None if tp_live
                      else draw(st.none() | positive | st.just(math.inf))),
        recompute=draw(st.sampled_from([None, "auto"])) if refine else None,
        tp_degrees=degrees,
    )


@st.composite
def sim_specs(draw):
    strategy = draw(st.sampled_from(STRATEGY_NAMES))
    events = draw(st.lists(st.builds(
        FaultEvent, st.just("crash"),
        st.sampled_from([0.25, 0.5]), st.integers(0, 2)), max_size=2))
    return SimSpec(
        strategy=strategy,
        minibatches=draw(st.integers(1, 6)),
        schedule_family=(draw(st.sampled_from(["1f1b", "2bp"]))
                         if strategy == "pipedream" else "1f1b"),
        faults=FaultSchedule(events) if events else None,
    )


class TestProperties:
    @given(sim_specs(), sim_specs())
    @settings(max_examples=300, deadline=None)
    def test_sim_key_is_injective(self, a, b):
        assert (a == b) == (a.key() == b.key())
        if a == b:
            assert hash(a) == hash(b)

    @given(specs())
    @settings(max_examples=200, deadline=None)
    def test_options_round_trip(self, spec):
        assert PlanSpec(**spec.options()) == spec
        assert PlanSpec(**spec.options()).key() == spec.key()

    @given(specs(), specs())
    @settings(max_examples=300, deadline=None)
    def test_key_is_injective(self, a, b):
        assert (a == b) == (a.key() == b.key())
        if a == b:
            assert hash(a) == hash(b)

    @given(specs())
    @settings(max_examples=100, deadline=None)
    def test_key_omits_exactly_the_defaults(self, spec):
        named = dict(spec.key())
        defaults = PlanSpec().options()
        for name, value in spec.options().items():
            assert (name in named) == (value != defaults[name])


# ----------------------------------------------------------------------
# (c) cross-surface
# ----------------------------------------------------------------------

#: (model, servers, spec): the options every surface can state.
CROSS_SURFACE = [
    ("vgg16", 1, PlanSpec()),
    ("vgg16", 2, PlanSpec(bucket_bytes=25e6)),
    ("vgg16", 2, PlanSpec(memory_limit_bytes=6e9, recompute="auto")),
    ("gnmt8", 2, PlanSpec(memory_limit_bytes=1e9, tp_degrees=(1, 2))),
    ("vgg16", 2, PlanSpec(memory_limit_bytes=2e9, tp_degrees=(1, 2),
                          recompute="auto")),
    ("gnmt8", 1, PlanSpec(recompute="auto", tp_degrees=(1,))),
]


@pytest.mark.parametrize("model, servers, spec", CROSS_SURFACE)
def test_every_surface_names_the_same_plan(model, servers, spec, capsys):
    profile, topology = analytic_profile(model), cluster_a(servers)
    direct = PipeDreamOptimizer(profile, topology, **spec.options()).solve()

    request = {"model": model, "cluster": "a", "servers": servers}
    request.update({k: list(v) if isinstance(v, tuple) else v
                    for k, v in spec.key()})
    served = PlannerService().plan(request)
    assert served["config"] == direct.config_string
    assert served["slowest_stage_time"] == direct.slowest_stage_time
    assert served["stages"] == [[s.start, s.stop, s.replicas]
                                for s in direct.stages]

    [record] = run_sweep(
        [model], topology, [topology.total_workers],
        strategies=("pipedream",), minibatches=8,
        bucket_sizes=(spec.bucket_bytes,), recomputes=(spec.recompute,),
        memory_limit_bytes=spec.memory_limit_bytes,
        tp_degrees=spec.tp_degrees)
    assert record.config == direct.config_string
    assert (record.bucket_bytes, record.recompute, record.tp_degrees) == (
        spec.bucket_bytes, spec.recompute, spec.tp_degrees)

    argv = ["plan", model, "--cluster", "a", "--servers", str(servers)]
    for name, value in spec.key():
        argv.append("--" + name.replace("_", "-"))
        argv.extend(map(str, value) if isinstance(value, tuple)
                    else [str(value)])
    assert cli_main(argv) == 0
    printed = re.search(r"config: (\S+)", capsys.readouterr().out).group(1)
    assert printed == direct.config_string


#: (plan options, schedule family) every strategy is asked under; 2bp
#: only where the strategy has a pipeline to fill.
SIMULATED = [
    (strategy, options, family)
    for strategy in STRATEGY_NAMES
    for options, family in [({}, "1f1b"), ({"bucket_bytes": 25e6}, "1f1b"),
                            ({}, "2bp")]
    if family == "1f1b" or strategy == "pipedream"
]


@pytest.mark.parametrize("strategy, options, family", SIMULATED)
def test_every_surface_simulates_the_same_scenario(strategy, options, family,
                                                   capsys):
    """``minibatches`` is literal on every surface; the sweep, whose cell
    budget is the one rescaling, agrees when the budget equals it."""
    profile, topology = analytic_profile("gnmt8"), cluster_a(2)
    count = grid_minibatches(strategy, 16)
    sim = SimSpec(strategy, count, family)
    direct = simulate_strategy(profile, topology, sim, PlanSpec(**options))

    served = PlannerService().simulate(dict(
        {"model": "gnmt8", "cluster": "a", "servers": 2,
         "strategy": strategy, "minibatches": count,
         "schedule_family": family}, **options))
    assert served["config"] == direct.config
    assert served["throughput"] == direct.throughput
    assert served["communication_overhead"] == direct.communication_overhead

    [record] = run_sweep(
        ["gnmt8"], topology, [topology.total_workers],
        strategies=(strategy,), minibatches=16,
        bucket_sizes=(options.get("bucket_bytes"),),
        schedule_families=(family,))
    assert record.config == direct.config
    assert record.samples_per_second == direct.samples_per_second
    assert record.communication_overhead == direct.communication_overhead
    assert record.schedule_family == family

    argv = ["simulate", "gnmt8", "--cluster", "a", "--servers", "2",
            "--strategy", strategy, "--minibatches", str(count),
            "--schedule-family", family]
    if options:
        argv += ["--bucket-bytes", str(options["bucket_bytes"])]
    assert cli_main(argv) == 0
    printed = dict(re.findall(r"^(\S[^\n]*?)  +(\S[^\n]*?) *$",
                              capsys.readouterr().out, re.M))
    assert printed["config"] == direct.config
    assert printed["throughput"] == f"{direct.throughput:.2f} minibatches/s"
    assert printed["comm overhead"] == f"{direct.communication_overhead:.1%}"


def test_cli_exits_2_with_the_spec_message(capsys):
    for argv, message in [
        (["plan", "vgg16", "--memory-limit-bytes", "nan"],
         "memory_limit_bytes must be finite and > 0, got nan"),
        (["simulate", "vgg16", "--tp-degrees", "1", "2",
          "--bucket-bytes", "1e6"], "cannot be combined"),
        (["sweep", "vgg16", "--counts", "4", "--bucket-sizes", "-1"],
         "bucket_bytes must be > 0"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


# ----------------------------------------------------------------------
# (d) golden outputs
# ----------------------------------------------------------------------

def _strip(payload):
    """Drop the two fields that legitimately vary run to run."""
    if isinstance(payload, list):
        return [_strip(item) for item in payload]
    return {k: v for k, v in payload.items()
            if k not in ("solve_seconds", "cached")}


def golden_responses() -> str:
    """Every golden request answered by one fresh service, as JSON text."""
    service = PlannerService()
    answers = []
    for endpoint, body in GOLDEN_REQUESTS:
        try:
            answers.append(_strip(getattr(service, endpoint)(body)))
        except RequestError as exc:
            answers.append({"error": str(exc)})
    return json.dumps(answers, indent=1, sort_keys=True) + "\n"


def golden_sweep_csv() -> str:
    """2 models x {fp32, fp16} x {None, 25e6} x {1f1b, 2bp}, as CSV text."""
    return records_to_csv(run_sweep(
        ("vgg16", "gnmt8"), cluster_a(2), (4, 8), minibatches=16,
        precisions=("fp32", "fp16"), bucket_sizes=(None, 25e6),
        schedule_families=("1f1b", "2bp"),
    ))


def _read(name: str) -> str:
    # Bytes, not text mode: the CSV writer's "\r\n" must survive.
    return (FIXTURES / name).read_bytes().decode()


class TestGoldenOutputs:
    def test_service_payloads_byte_equal(self):
        assert golden_responses() == _read("responses.json")

    def test_sweep_csv_byte_equal(self):
        assert golden_sweep_csv() == _read("sweep.csv")


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    (FIXTURES / "responses.json").write_bytes(golden_responses().encode())
    (FIXTURES / "sweep.csv").write_bytes(golden_sweep_csv().encode())
    print(f"wrote {FIXTURES}")
