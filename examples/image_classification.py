"""Image classification with a pipelined VGG — the paper's flagship workload.

Builds the scaled VGG-16, lets the optimizer isolate the weight-heavy FC
tail (the "15-1" insight at 2-worker scale: conv body | FC tail), then
compares three ways to train it on the same data:

- PipeDream (1F1B pipeline + weight stashing),
- naive pipelining (no weight stashing: §3.3's invalid gradients),
- BSP data parallelism (the same trainer on one stage of two replicas).

Finally it simulates full-size VGG-16 on the paper's Cluster-A to show the
hardware-efficiency side of the same comparison.

Run:  python examples/image_classification.py
"""

import numpy as np

from repro import api


def build():
    return api.build_vgg(scale=0.25, num_classes=4, fc_width=64,
                         rng=np.random.default_rng(3))


def main() -> None:
    X, y = api.make_image_data(num_samples=64, image_size=32, num_classes=4,
                               noise=0.15, seed=0)
    batches = [(X[i * 8 : (i + 1) * 8], y[i * 8 : (i + 1) * 8])
               for i in range(8)]
    loss_fn = api.CrossEntropyLoss()

    # Partition: conv body | FC tail, as the optimizer does for VGG-16.
    model = build()
    fc6 = model.layer_names.index("fc6")
    stages = [api.Stage(0, fc6, 1), api.Stage(fc6, model.num_layers, 1)]
    print(f"Stages: conv body (layers 0..{fc6 - 1}) | FC tail "
          f"(layers {fc6}..{model.num_layers - 1})")

    trainers = {
        "pipedream (stashing)": api.PipelineTrainer(
            model, stages, loss_fn, lambda ps: api.Adam(ps, lr=0.001)),
        "naive pipeline": api.PipelineTrainer(
            build(), stages, loss_fn, lambda ps: api.SGD(ps, lr=0.05),
            policy="none"),
        "data parallel (BSP)": api.PipelineTrainer(
            build(), [api.Stage(0, model.num_layers, 2)], loss_fn,
            lambda ps: api.Adam(ps, lr=0.001)),
    }

    print("\nAccuracy per epoch:")
    print(f"{'epoch':>5s}  " + "  ".join(f"{name:>22s}" for name in trainers))
    curves = {name: [] for name in trainers}
    for epoch in range(6):
        row = [f"{epoch + 1:5d}"]
        for name, trainer in trainers.items():
            trainer.train_epoch(batches)
            acc = api.evaluate_accuracy(trainer.consolidated_model(), X, y)
            curves[name].append(acc)
            row.append(f"{acc:>22.1%}")
        print("  ".join(row))

    # Hardware side: simulate full-size VGG-16 on Cluster-A (16 V100s).
    profile = api.analytic_profile("vgg16")
    topology = api.cluster_a(4)
    plan = api.PipeDreamOptimizer(profile, topology).solve()
    dp = api.simulate_data_parallel(profile, topology, num_minibatches=8)
    pd = api.simulate_pipedream(profile, topology, num_minibatches=96)
    print(f"\nSimulated full-size VGG-16 on Cluster-A (16 V100s):")
    print(f"  optimizer config:        {plan.config_string}")
    print(f"  DP throughput:           {dp.samples_per_second:,.0f} images/s "
          f"({dp.communication_overhead:.0%} comm overhead)")
    print(f"  PipeDream throughput:    {pd.samples_per_second:,.0f} images/s")
    print(f"  epoch-time speedup:      "
          f"{pd.samples_per_second / dp.samples_per_second:.2f}x "
          "(paper: 5.28x)")


if __name__ == "__main__":
    main()
