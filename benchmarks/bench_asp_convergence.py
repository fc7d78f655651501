"""§5.2: asynchronous parallelism has poor statistical efficiency.

BSP, ASP, and PipeDream (weight stashing) trained on the same task with the
same aggressive hyperparameters.  Paper shape: ASP removes communication
stalls but its stale gradients need far more epochs to reach a given
accuracy (7.4x slower than PipeDream in the paper's VGG-16 run); PipeDream
tracks BSP closely.
"""

from __future__ import annotations

import numpy as np

from common import print_header, print_rows, run_once

from repro.core.partition import Stage
from repro.core.schedule import asp_schedule, one_f_one_b_rr_schedule
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import PipelineTrainer, evaluate_accuracy

EPOCHS = 14
LR = 0.05  # staleness still destabilizes ASP at this rate (momentum 0.9)
WORKERS = 4
TARGET = 0.9


def run():
    X, y = make_classification_data(num_samples=256, num_features=24,
                                    num_classes=4, noise=1.2, seed=6)
    batches = [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16]) for i in range(16)]
    loss_fn = CrossEntropyLoss()

    def model():
        return build_mlp(in_features=24, hidden=(32, 32), num_classes=4,
                         rng=np.random.default_rng(8))

    def curve(stages, schedule):
        trainer = PipelineTrainer(model(), stages, loss_fn,
                                  lambda ps: SGD(ps, lr=LR, momentum=0.9))
        accs = []
        for _ in range(EPOCHS):
            trainer.execute(schedule, batches)
            accs.append(evaluate_accuracy(trainer.consolidated_model(), X, y))
        return accs

    # Every strategy is a schedule table run by the same trainer: BSP is
    # 1F1B-RR on one stage of WORKERS replicas, ASP the one-worker table
    # whose forwards see weights WORKERS - 1 updates stale.
    n = len(batches)
    bsp = [Stage(0, 3, WORKERS)]
    pipedream = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)]
    return {
        "bsp": curve(bsp, one_f_one_b_rr_schedule(bsp, n)),
        "asp": curve([Stage(0, 3, 1)], asp_schedule(WORKERS, n, 3)),
        "pipedream": curve(pipedream, one_f_one_b_rr_schedule(pipedream, n)),
    }


def report(curves) -> None:
    print_header("§5.2 — statistical efficiency: BSP vs. ASP vs. PipeDream")
    rows = []
    for epoch in range(EPOCHS):
        rows.append([
            str(epoch + 1),
            f"{curves['bsp'][epoch]:.1%}",
            f"{curves['asp'][epoch]:.1%}",
            f"{curves['pipedream'][epoch]:.1%}",
        ])
    print_rows(["epoch", "BSP (DP)", "ASP", "PipeDream"], rows)

    def to_target(accs):
        for e, acc in enumerate(accs, 1):
            if acc >= TARGET:
                return e
        return None

    print(f"\nepochs to {TARGET:.0%}: bsp={to_target(curves['bsp'])} "
          f"asp={to_target(curves['asp'])} pipedream={to_target(curves['pipedream'])}")


def test_asp_statistically_worse(benchmark):
    curves = run_once(benchmark, run)

    def epochs_to(accs):
        for e, acc in enumerate(accs, 1):
            if acc >= TARGET:
                return e
        return EPOCHS * 4  # never reached within budget

    bsp = epochs_to(curves["bsp"])
    asp = epochs_to(curves["asp"])
    pipedream = epochs_to(curves["pipedream"])
    # ASP needs more epochs than both synchronous-ish strategies.
    assert asp > pipedream
    assert asp > bsp
    # PipeDream stays within ~2x of BSP statistically.
    assert pipedream <= 2 * bsp + 1


if __name__ == "__main__":
    report(run())
