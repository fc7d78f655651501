"""Figure 13: statistical efficiency of large minibatches with LARS.

The scaled AlexNet trained with LARS (linearly scaled learning rate) at
increasing global minibatch sizes under a fixed epoch budget.  Paper shape: the moderate batch (1024) trains fastest to
target; the largest batches (4096/8192) fail to reach the target accuracy
at all — large-batch scaling lacks generality, and PipeDream still beats
the best LARS option.
"""

from __future__ import annotations

import numpy as np

from common import print_header, print_rows, run_once

from repro.core.partition import Stage
from repro.data import make_image_data
from repro.models import build_alexnet
from repro.nn import CrossEntropyLoss
from repro.optim import LARS
from repro.runtime import PipelineTrainer, evaluate_accuracy

EPOCHS = 10
#: scaled-down analogues of the paper's 1024 / 4096 / 8192 global batches
BATCH_SIZES = [8, 32, 128]


def run():
    X, y = make_image_data(num_samples=128, image_size=16, num_classes=4,
                           noise=0.15, seed=2)
    curves = {}
    for batch in BATCH_SIZES:
        model = build_alexnet(scale=0.25, image_size=16, num_classes=4,
                              rng=np.random.default_rng(4))
        # LARS prescribes scaling the base LR linearly with the batch size.
        lr = 0.5 * batch / BATCH_SIZES[0]
        # Sequential training: the runtime on one stage of every layer.
        trainer = PipelineTrainer(
            model, [Stage(0, model.num_layers, 1)], CrossEntropyLoss(),
            lambda params: LARS(params, lr=lr, momentum=0.9,
                                trust_coefficient=0.02),
        )
        accs = []
        for _ in range(EPOCHS):
            batches = [
                (X[i : i + batch], y[i : i + batch])
                for i in range(0, len(X) - batch + 1, batch)
            ]
            trainer.train_epoch(batches)
            accs.append(evaluate_accuracy(trainer.consolidated_model(), X, y))
        curves[batch] = accs
    return curves


def report(curves) -> None:
    print_header("Figure 13 — LARS accuracy vs. epoch by global batch size")
    headers = ["epoch"] + [f"batch {b}" for b in curves]
    rows = []
    for epoch in range(EPOCHS):
        rows.append([str(epoch + 1)] + [f"{curves[b][epoch]:.1%}" for b in curves])
    print_rows(headers, rows)


def test_fig13_large_batches_fail(benchmark):
    curves = run_once(benchmark, run)
    target = 0.9
    best = {b: max(acc) for b, acc in curves.items()}
    # The small batch reaches the target within the budget...
    assert best[BATCH_SIZES[0]] >= target
    # ...the largest batch does not (few updates + huge steps), showing the
    # lack of generality the paper highlights.
    assert best[BATCH_SIZES[-1]] < target


if __name__ == "__main__":
    report(run())
