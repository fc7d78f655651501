"""Quickstart: the full PipeDream workflow on a small model.

Profiles an MLP, partitions it with the §3.1 optimizer for a 4-worker
cluster, trains it through the 1F1B pipeline runtime with weight stashing,
and cross-checks the result against plain single-worker SGD (the same
runtime on one stage holding every layer).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import api


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. Build a partitionable model and a synthetic task.
    model = api.build_mlp(in_features=16, hidden=(32, 32, 32), num_classes=4,
                          rng=rng)
    X, y = api.make_classification_data(num_samples=128, num_features=16,
                                        num_classes=4, seed=1)
    batches = [(X[i * 16 : (i + 1) * 16], y[i * 16 : (i + 1) * 16])
               for i in range(8)]

    # 2. Profile it (the paper's single-GPU profiling step, Figure 6).
    profile = api.profile_model(model, X[:16])
    print("Per-layer profile (T_l, a_l, w_l):")
    for layer in profile:
        print(f"  {layer.name:8s} T={layer.compute_time * 1e3:6.2f} ms "
              f"a={layer.activation_bytes:6d} B  w={layer.weight_bytes:6d} B")

    # 3. Partition for a 4-GPU server.
    topology = api.make_cluster("demo", 4, 1, 2e6, 2e6)
    plan = api.PipeDreamOptimizer(profile, topology).solve()
    print(f"\nOptimizer chose config {plan.config_string!r} "
          f"(NOAM={plan.noam}, predicted {plan.predicted_throughput:.1f} "
          "minibatches/s):")
    for stage in plan.stages:
        names = [profile[i].name for i in range(stage.start, stage.stop)]
        print(f"  stage {names} x{stage.replicas}")

    # 4. Train through the pipelined runtime (1F1B-RR + weight stashing).
    trainer = api.PipelineTrainer(
        model, plan.stages, api.CrossEntropyLoss(),
        lambda params: api.SGD(params, lr=0.1),
    )
    print("\nTraining (pipelined, weight stashing):")
    for epoch in range(5):
        loss = trainer.train_minibatches(batches)
        accuracy = api.evaluate_accuracy(trainer.consolidated_model(), X, y)
        print(f"  epoch {epoch + 1}: loss={loss:.3f} accuracy={accuracy:.1%}")

    # 5. Sanity check against sequential SGD on a fresh copy.
    reference = api.build_mlp(in_features=16, hidden=(32, 32, 32),
                              num_classes=4, rng=np.random.default_rng(0))
    seq = api.PipelineTrainer(
        reference, [api.Stage(0, reference.num_layers, 1)],
        api.CrossEntropyLoss(), lambda params: api.SGD(params, lr=0.1),
    )
    for _ in range(5):
        seq.train_epoch(batches)
    print(f"\nSequential SGD reference accuracy: "
          f"{api.evaluate_accuracy(seq.consolidated_model(), X, y):.1%}")


if __name__ == "__main__":
    main()
