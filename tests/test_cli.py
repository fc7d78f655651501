"""Command-line interface."""

import json
import os

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.spec import PLAN_FIELDS, SIM_FIELDS
from repro.serve.service import normalize_simulate_request
from repro.utils import obs


class TestModels:
    def test_lists_all_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for model in ("vgg16", "resnet50", "gnmt8", "awd-lm", "s2vt"):
            assert model in out


class TestProfile:
    def test_prints_layer_table(self, capsys):
        assert main(["profile", "vgg16"]) == 0
        out = capsys.readouterr().out
        assert "conv1_1" in out and "fc8" in out

    def test_writes_json(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["profile", "gnmt8", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["model_name"] == "gnmt8"
        assert len(data["layers"]) == 10

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "nope"])


class TestPlan:
    def test_prints_deployment(self, capsys):
        assert main(["plan", "vgg16", "--cluster", "a", "--servers", "4"]) == 0
        out = capsys.readouterr().out
        assert "stage 0:" in out
        assert "config: 15-1" in out

    def test_writes_plan_json(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["plan", "resnet50", "--cluster", "a", "--servers", "4",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["model_name"] == "resnet50"
        assert sum(s["replicas"] for s in data["stages"]) == 16

    def test_workers_subset(self, capsys):
        assert main(["plan", "gnmt8", "--cluster", "a", "--servers", "1",
                     "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 worker(s)" in out

    def test_trace_holds_one_event_per_span(self, tmp_path, capsys):
        """``--trace`` on a capped recompute + tp plan: the file parses,
        holds one complete event per span the solve recorded (the
        registry is left disabled, as found), every phase event lies
        inside the solve event, and the refined spans carry their sizes."""
        path = tmp_path / "solve.json"
        first = len(obs.registry.spans)
        try:
            assert main(["plan", "vgg16", "--servers", "2",
                         "--memory-limit-bytes", "1.5e9", "--recompute",
                         "auto", "--tp-degrees", "1", "2", "4",
                         "--trace", str(path)]) == 0
            spans = obs.registry.spans[first:]
        finally:
            del obs.registry.spans[first:]
        assert not obs.registry.enabled
        assert f"wrote {path} ({len(spans)} spans)" in capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        assert [e["name"] for e in events] == [span.name for span in spans]
        assert {e["ph"] for e in events} == {"X"}
        assert {e["tid"] for e in events} == {0}
        (solve,) = [e for e in events if e["name"] == "solve"]
        assert solve["args"] == {"depth": 0, "model": "vgg16", "workers": 8}
        phases = [e for e in events if e["args"]["depth"] == 1]
        assert {e["name"] for e in phases} == {
            "levels", "refined", "footprint", "score"}
        for event in phases:
            assert solve["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= solve["ts"] + solve["dur"] + 1e-3
        by_name = {e["name"]: e["args"] for e in events}
        assert by_name["refined.rows"] == {"depth": 2, "rows": 8}
        assert set(by_name["refined.planes"]["stack_rows"]) == {"1", "2", "4"}

    def test_an_unwritable_output_leaves_no_other_file(self, tmp_path,
                                                       capsys):
        """Every output path is checked before the solve: a bad
        ``--trace`` stops the run before ``--json`` is written."""
        plan = tmp_path / "plan.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "alexnet", "--servers", "1", "--json", str(plan),
                  "--trace", str(tmp_path / "missing" / "solve.json")])
        assert excinfo.value.code == 2
        assert "argument --trace" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    @pytest.mark.parametrize("strategy", ["pipedream", "dp", "mp", "gpipe"])
    def test_strategies_run(self, capsys, strategy):
        assert main(["simulate", "gnmt8", "--cluster", "a", "--servers", "1",
                     "--strategy", strategy, "--minibatches", "16"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "bytes/sample" in out

    @pytest.mark.parametrize("flags, field", [
        (["--memory-limit-bytes", "1e9"], "memory_limit_bytes"),
        (["--recompute", "auto"], "recompute"),
        (["--tp-degrees", "1", "2"], "tp_degrees"),
        (["--schedule-family", "2bp"], "schedule_family"),
    ])
    @pytest.mark.parametrize("strategy", ["dp", "mp", "gpipe"])
    def test_pipedream_only_option_exits_2(self, capsys, strategy, flags,
                                           field):
        """An option the strategy would not read is refused with the
        spec's message, never priced and ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "vgg16", "--servers", "1",
                  "--strategy", strategy, *flags])
        assert excinfo.value.code == 2
        assert (f"{field} applies to the pipedream strategy only, "
                f"not to {strategy!r}") in capsys.readouterr().err

    def test_bucket_bytes_is_read_by_every_strategy(self, capsys):
        for strategy in ("dp", "mp", "gpipe", "pipedream"):
            assert main(["simulate", "vgg16", "--servers", "1",
                         "--strategy", strategy, "--minibatches", "8",
                         "--bucket-bytes", "25e6"]) == 0

    def test_minibatches_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "vgg16", "--minibatches", "0"])
        assert excinfo.value.code == 2
        assert "minibatches must be an int >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, spec, message", [
        # Not a fault spec at all.
        ("pipedream", "foo", "bad fault event 'foo'"),
        # Non-finite fields.
        ("mp", "slow@0:w1:xnan:d100", "factor must be finite"),
        ("pipedream", "crash@nan:w0", "fault time must be finite"),
        # A worker or level the 4-worker, one-level cluster lacks.
        ("pipedream", "crash@0.05:w99", "names worker 99"),
        ("mp", "slow@0:w9:x2:d1", "names worker 9"),
        ("dp", "bw@0:x2:d1:l5", "names level 5"),
    ])
    def test_bad_faults_exit_2(self, capsys, strategy, spec, message):
        """A bad ``--faults`` is a usage error, never a traceback, a
        silent no-op or a ``nan%`` row."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "vgg16", "--cluster", "a", "--servers", "1",
                  "--strategy", strategy, "--minibatches", "8",
                  "--faults", spec])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_one_batch_gpipe_reports_a_finite_rate(self, capsys):
        """GPipe's backward completes a batch's microbatches last to first;
        the one-batch run printed ``inf minibatches/s``."""
        assert main(["simulate", "alexnet", "--servers", "1", "--strategy",
                     "gpipe", "--minibatches", "1"]) == 0
        assert "inf" not in capsys.readouterr().out

    @pytest.mark.parametrize("strategy, solves", [
        ("pipedream", True), ("dp", False)])
    def test_trace_holds_one_event_per_span(self, tmp_path, capsys,
                                            strategy, solves):
        """``--trace`` writes the run's spans: the file parses, holds one
        complete event per recorded span (the registry is left disabled,
        as found), and every simulation phase lies inside its
        ``simulate`` event; a pipedream run shows its solve too."""
        path = tmp_path / "run.json"
        first = len(obs.registry.spans)
        try:
            assert main(["simulate", "vgg16", "--servers", "2",
                         "--strategy", strategy, "--minibatches", "64",
                         "--trace", str(path)]) == 0
            spans = obs.registry.spans[first:]
        finally:
            del obs.registry.spans[first:]
        assert not obs.registry.enabled
        assert f"wrote {path} ({len(spans)} spans)" in capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        assert [e["name"] for e in events] == [span.name for span in spans]
        assert {e["ph"] for e in events} == {"X"}
        assert any(e["name"] == "solve" for e in events) == solves
        (run,) = [e for e in events if e["name"] == "simulate"]
        phases = [e for e in events if e["name"].startswith("sim.")]
        assert [e["name"] for e in phases] == [
            "sim.init", "sim.loop", "sim.result"]
        for event in phases:
            assert event["args"]["depth"] == run["args"]["depth"] + 1
            assert run["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= run["ts"] + run["dur"] + 1e-3
        loop = phases[1]["args"]
        assert loop["ranks"] == (8 if strategy == "pipedream" else 1)
        assert loop["ops"] > 0

    def test_faults_in_range_run(self, capsys):
        assert main(["simulate", "vgg16", "--cluster", "a", "--servers", "1",
                     "--strategy", "mp", "--minibatches", "8",
                     "--faults", "slow@0:w1:x2:dinf"]) == 0
        assert "nan" not in capsys.readouterr().out


class TestSweep:
    def test_cells_that_cannot_plan_exit_2(self, capsys):
        """An infeasible cap is a usage error naming each failed cell,
        never a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "vgg16", "--counts", "4", "--precisions", "fp32",
                  "--memory-limit-bytes", "1000"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "1 sweep cell(s) failed: (vgg16, pipedream, fp32)" in err
        assert "no plan fits memory_limit_bytes=1000" in err


class TestServe:
    def test_serve_binds_and_shuts_down(self, capsys, monkeypatch):
        """Wire-through check: the subcommand builds a configured service,
        binds, prints where it listens, and closes cleanly on interrupt."""
        from repro.serve import server as server_mod

        captured = {}
        original_init = server_mod.PlannerHTTPServer.__init__

        def spying_init(self, address, service, verbose=False):
            captured["service"] = service
            captured["verbose"] = verbose
            original_init(self, address, service, verbose)

        monkeypatch.setattr(server_mod.PlannerHTTPServer, "__init__",
                            spying_init)
        monkeypatch.setattr(
            server_mod.PlannerHTTPServer, "serve_forever",
            lambda self, poll_interval=0.5: (_ for _ in ()).throw(
                KeyboardInterrupt),
        )
        assert main(["serve", "--port", "0", "--plan-cache", "7",
                     "--cold"]) == 0
        out = capsys.readouterr().out
        assert "listening on http://127.0.0.1:" in out
        assert "warm start off" in out
        service = captured["service"]
        assert service.plan_cache.stats()["capacity"] == 7
        assert service.warm_start is False
        assert captured["verbose"] is False


class TestTimeline:
    @pytest.mark.parametrize("schedule", ["1f1b", "gpipe", "mp"])
    def test_timelines_render(self, capsys, schedule):
        assert main(["timeline", "--stages", "3", "--minibatches", "6",
                     "--schedule", schedule]) == 0
        out = capsys.readouterr().out
        assert "worker 0" in out
        assert "utilization" in out


#: Hostile argv the field table refuses: each exits 2 naming its flag,
#: with no traceback (an uncaught exception would not be a SystemExit).
HOSTILE_ARGV = [
    (["plan", "vgg16", "--servers", "0"],
     "argument --servers: servers must be an int >= 1, got 0"),
    (["sweep", "vgg16", "--counts", "4", "--servers", "0"], "--servers"),
    (["plan", "vgg16", "--servers", "100000000"], "--servers"),
    (["plan", "vgg16", "--servers", "300"], "1200 workers"),
    (["plan", "vgg16", "--workers", "-1"], "--workers"),
    (["plan", "vgg16", "--workers", "0"], "--workers"),
    (["plan", "vgg16", "--workers", "5"], "5 workers"),
    (["profile", "vgg16", "--batch", "-3"], "--batch"),
    (["serve", "--plan-cache", "-1"], "--plan-cache"),
    (["serve", "--context-capacity", "-1"], "--context-capacity"),
    (["timeline", "--stages", "0"], "stages"),
    (["timeline", "--stages", "2000"], "2000 workers"),
    (["timeline", "--minibatches", "-1"], "minibatches"),
    (["timeline", "--minibatches", "10001"], "--minibatches"),
    (["timeline", "--width", "0"], "--width"),
    (["simulate", "vgg16", "--minibatches", "10001"], "--minibatches"),
    (["sweep", "vgg16", "--counts", "0"], "--counts"),
    (["sweep", "vgg16", "--counts", "100000"], "--counts"),
    (["sweep", "vgg16", "--counts", "4", "--svg", os.devnull,
      "--metric", "bogus"], "--metric"),
    (["sweep", "vgg16", "--counts", "4", "--svg", os.devnull,
      "--metric", "config"], "--metric"),
    (["sweep", "vgg16", "--counts", "1000"], "[1000] packs onto the 16-worker"),
    (["sweep", "vgg16", "--counts", "1000", "--csv", os.devnull], "[1000]"),
    (["sweep", "vgg16", "--counts", "1000", "--svg", os.devnull], "[1000]"),
    (["plan", "vgg16", "--memory-limit-bytes", "1000"],
     "memory_limit_bytes=1000"),
    # Unwritable outputs are refused before the solve, profile or sweep.
    (["plan", "alexnet", "--servers", "1", "--json", "/nonexistent/x.json"],
     "argument --json: cannot write '/nonexistent/x.json'"),
    (["plan", "alexnet", "--servers", "1", "--trace", "/nonexistent/x.json"],
     "argument --trace: cannot write"),
    (["plan", "alexnet", "--servers", "1", "--trace", os.curdir],
     "argument --trace: cannot write '.': it is a directory"),
    (["profile", "alexnet", "--json", "/nonexistent/x.json"],
     "argument --json: cannot write"),
    (["sweep", "alexnet", "--counts", "4", "--csv", "/nonexistent/x.csv"],
     "argument --csv: cannot write"),
    (["sweep", "alexnet", "--counts", "4", "--svg", "/nonexistent/x.svg"],
     "argument --svg: cannot write"),
    (["simulate", "alexnet", "--servers", "1", "--trace",
      "/nonexistent/x.json"], "argument --trace: cannot write"),
    (["simulate", "alexnet", "--servers", "1", "--trace", os.curdir],
     "argument --trace: cannot write '.': it is a directory"),
    (["simulate", "vgg16", "--memory-limit-bytes", "1000"],
     "memory_limit_bytes=1000"),
]


@pytest.mark.parametrize("argv, flag", HOSTILE_ARGV,
                         ids=[" ".join(argv) for argv, _ in HOSTILE_ARGV])
def test_hostile_argv_exits_2_naming_its_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert flag in err
    assert "Traceback" not in err
    assert out == ""


#: One valid value per plan / sim field, as argv words and as JSON.
SPEC_VALUES = {
    "memory_limit_bytes": (["16e9"], 16e9),
    "bucket_bytes": (["25e6"], 25e6),
    "recompute": (["auto"], "auto"),
    "tp_degrees": (["2", "4"], [2, 4]),
    "strategy": (["dp"], "dp"),
    "minibatches": (["16"], 16),
    "schedule_family": (["2bp"], "2bp"),
}
#: Plan fields only a service request carries.
JSON_ONLY = {"allow_replication", "memory_refine"}


def test_argv_and_json_build_equal_specs():
    """Drift check: every plan or sim field given through argv and
    through JSON yields equal ``PlanSpec`` / ``SimSpec`` values."""
    assert set(SPEC_VALUES) | JSON_ONLY == set(PLAN_FIELDS + SIM_FIELDS)
    parser = build_parser()
    for name, (words, value) in SPEC_VALUES.items():
        flag = "--" + name.replace("_", "-")
        extra = {"memory_limit_bytes": 16e9} if name == "recompute" else {}
        args = parser.parse_args(
            ["simulate", "vgg16", "--servers", "1", flag, *words]
            + [f"--memory-limit-bytes={v}" for v in extra.values()])
        query, sim = normalize_simulate_request(
            {"model": "vgg16", "servers": 1, name: value, **extra})
        assert cli._plan_spec(args) == query.spec, name
        assert cli._sim_spec(args) == sim, name
