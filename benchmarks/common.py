"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` file regenerates one table or figure of the paper:
``pytest benchmarks/ --benchmark-only`` times the underlying computation,
and ``python benchmarks/bench_<exp>.py`` prints the paper-style rows/series.
Absolute numbers come from the simulated clusters (DESIGN.md §2); the
*shapes* — who wins, by what rough factor, where crossovers fall — are the
reproduction targets, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.utils import format_table


def print_header(title: str) -> None:
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}")


def print_rows(headers, rows) -> None:
    print(format_table(headers, rows))


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def vgg_convergence_curves(epochs: int = 8):
    """Per-epoch accuracies of the scaled VGG under PipeDream vs. BSP-DP.

    Shared by the Figure 10/11 benches: PipeDream runs a 2-stage pipeline
    (conv body | FC tail) with weight stashing; DP runs 2-worker BSP (one
    stage of two replicas through the same trainer).  Both
    use Adam(1e-3) on the same synthetic image task and the same seed.
    """
    import numpy as np

    from repro.core.partition import Stage
    from repro.data import make_image_data
    from repro.models import build_vgg
    from repro.nn import CrossEntropyLoss
    from repro.optim import Adam
    from repro.runtime import PipelineTrainer, evaluate_accuracy

    X, y = make_image_data(num_samples=64, image_size=32, num_classes=4,
                           noise=0.15, seed=0)
    batches = [(X[i * 8 : (i + 1) * 8], y[i * 8 : (i + 1) * 8]) for i in range(8)]
    loss_fn = CrossEntropyLoss()

    pipe_model = build_vgg(scale=0.25, num_classes=4, fc_width=64,
                           rng=np.random.default_rng(3))
    fc6 = pipe_model.layer_names.index("fc6")
    pipe = PipelineTrainer(
        pipe_model,
        [Stage(0, fc6, 1), Stage(fc6, pipe_model.num_layers, 1)],
        loss_fn, lambda ps: Adam(ps, lr=0.001),
    )
    dp_model = build_vgg(scale=0.25, num_classes=4, fc_width=64,
                         rng=np.random.default_rng(3))
    bsp = PipelineTrainer(dp_model, [Stage(0, dp_model.num_layers, 2)],
                          loss_fn, lambda ps: Adam(ps, lr=0.001))

    pipe_acc, dp_acc = [], []
    for _ in range(epochs):
        pipe.train_minibatches(batches)
        pipe_acc.append(evaluate_accuracy(pipe.consolidated_model(), X, y))
        bsp.train_epoch(batches)
        dp_acc.append(evaluate_accuracy(bsp.consolidated_model(), X, y))
    return pipe_acc, dp_acc
