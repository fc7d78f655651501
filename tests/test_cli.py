"""Command-line interface."""

import json

import pytest

from repro.cli import main


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
