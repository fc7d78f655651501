"""Figure 11: accuracy vs. epoch — PipeDream matches DP statistically.

Real training of the scaled VGG (image classification) and a GNMT stack
(synthetic translation) under weight-stashed pipelining vs. BSP data
parallelism.  Paper shape: the two curves track each other epoch for epoch,
demonstrating that weight stashing preserves statistical efficiency; the
speedups of Table 1 therefore come from hardware efficiency alone.
"""

from __future__ import annotations

import numpy as np

from common import print_header, print_rows, run_once, vgg_convergence_curves

from repro.core.partition import Stage
from repro.data import make_seq2seq_data
from repro.models import build_gnmt
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.runtime import PipelineTrainer, evaluate_accuracy

EPOCHS = 8


def _gnmt_curves():
    src, tgt = make_seq2seq_data(num_samples=96, seq_len=6, vocab_size=12, seed=1)
    batches = [(src[i * 12 : (i + 1) * 12], tgt[i * 12 : (i + 1) * 12]) for i in range(8)]
    loss_fn = CrossEntropyLoss()

    pipe_model = build_gnmt(num_lstm_layers=4, vocab_size=12, hidden_size=16,
                            rng=np.random.default_rng(5))
    # Straight 3-stage pipeline over the LSTM stack (Table 1's GNMT shape).
    stages = [Stage(0, 2, 1), Stage(2, 4, 1), Stage(4, 6, 1)]
    pipe = PipelineTrainer(pipe_model, stages, loss_fn, lambda ps: Adam(ps, lr=0.01))

    dp_model = build_gnmt(num_lstm_layers=4, vocab_size=12, hidden_size=16,
                          rng=np.random.default_rng(5))
    bsp = PipelineTrainer(dp_model, [Stage(0, dp_model.num_layers, 2)],
                          loss_fn, lambda ps: Adam(ps, lr=0.01))

    pipe_acc, dp_acc = [], []
    for _ in range(EPOCHS):
        pipe.train_minibatches(batches)
        pipe_acc.append(evaluate_accuracy(pipe.consolidated_model(), src, tgt))
        bsp.train_epoch(batches)
        dp_acc.append(evaluate_accuracy(bsp.consolidated_model(), src, tgt))
    return pipe_acc, dp_acc


def run():
    vgg_pipe, vgg_dp = vgg_convergence_curves(epochs=EPOCHS)
    gnmt_pipe, gnmt_dp = _gnmt_curves()
    return {
        "vgg": {"pipedream": vgg_pipe, "dp": vgg_dp},
        "gnmt": {"pipedream": gnmt_pipe, "dp": gnmt_dp},
    }


def report(curves) -> None:
    for model, series in curves.items():
        print_header(f"Figure 11 — accuracy vs. epoch ({model})")
        rows = [
            [str(epoch + 1),
             f"{series['pipedream'][epoch]:.1%}",
             f"{series['dp'][epoch]:.1%}"]
            for epoch in range(len(series["pipedream"]))
        ]
        print_rows(["epoch", "PipeDream (stashing)", "DP (BSP)"], rows)


def test_fig11_statistical_parity(benchmark):
    curves = run_once(benchmark, run)
    for model, series in curves.items():
        # Both reach high accuracy by the final epoch...
        assert series["pipedream"][-1] > 0.85, model
        assert series["dp"][-1] > 0.85, model
        # ...and the pipelined run is not materially behind DP at the end.
        assert series["pipedream"][-1] > series["dp"][-1] - 0.15, model


def save_figures(curves, directory: str = "figures") -> None:
    import os

    from repro.utils.svgplot import LineChart

    os.makedirs(directory, exist_ok=True)
    for model, series in curves.items():
        chart = LineChart(f"Figure 11 — accuracy vs. epoch ({model})",
                          x_label="epoch", y_label="accuracy", y_percent=True)
        for strategy, accs in series.items():
            chart.add_series(strategy, list(enumerate(accs, 1)))
        chart.save(os.path.join(directory, f"fig11_{model}.svg"))


if __name__ == "__main__":
    curves = run()
    report(curves)
    save_figures(curves)
    print("\nfigures written to figures/fig11_*.svg")
