"""Library micro-benchmarks: performance regression guards.

Unlike the figure/table benches (single expensive experiments), these time
the library's hot paths with pytest-benchmark's repeated sampling:

- the §3.1 optimizer on a deep synthetic model,
- 1F1B-RR schedule generation for a long run,
- the discrete-event executor,
- the ring all_reduce,
- one autodiff training step of the scaled VGG.

They also double as documentation of expected costs (the paper's optimizer
bound is 8 s; ours solves a 64-layer model on 16 workers in milliseconds).
"""

from __future__ import annotations

import numpy as np

from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import one_f_one_b_rr_schedule
from repro.core.topology import make_cluster
from repro.comm import ring_allreduce
from repro.data import make_image_data
from repro.models import build_vgg
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.sim import simulate


def _deep_profile(n_layers: int = 64) -> ModelProfile:
    rng = np.random.default_rng(0)
    layers = [
        LayerProfile(f"l{i}", float(rng.uniform(0.5, 3.0)),
                     int(rng.integers(1_000, 1_000_000)),
                     int(rng.integers(1_000, 1_000_000)))
        for i in range(n_layers)
    ]
    return ModelProfile("deep", layers, batch_size=32)


def test_perf_optimizer_64_layers_16_workers(benchmark):
    profile = _deep_profile(64)
    topology = make_cluster("perf", 4, 4, 1e10, 1e9)

    result = benchmark(lambda: PipeDreamOptimizer(profile, topology).solve())
    assert result.solve_seconds < 8.0  # the paper's §5.5 bound


def test_perf_schedule_generation(benchmark):
    stages = [Stage(0, 4, 3), Stage(4, 8, 2), Stage(8, 12, 2), Stage(12, 16, 1)]

    schedule = benchmark(lambda: one_f_one_b_rr_schedule(stages, 512))
    assert schedule.num_minibatches == 512


def test_perf_simulator(benchmark):
    profile = _deep_profile(16)
    topology = make_cluster("perf", 4, 1, 1e10, 1e10)
    stages = [Stage(i * 4, (i + 1) * 4, 1) for i in range(4)]
    schedule = one_f_one_b_rr_schedule(stages, 64)

    sim = benchmark(lambda: simulate(schedule, profile, topology))
    assert sim.num_minibatches == 64


def test_perf_ring_allreduce(benchmark):
    rng = np.random.default_rng(0)
    contributions = [{"w": rng.standard_normal(100_000)} for _ in range(4)]

    results = benchmark(lambda: ring_allreduce(contributions))
    assert len(results) == 4


def test_perf_vgg_training_step(benchmark):
    model = build_vgg(scale=0.25, num_classes=4, fc_width=64,
                      rng=np.random.default_rng(0))
    X, y = make_image_data(num_samples=8, image_size=32, num_classes=4, seed=0)
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=0.01)

    def step():
        model.zero_grad()
        loss = loss_fn(model(X), y)
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)
