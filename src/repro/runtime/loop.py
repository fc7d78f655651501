"""High-level training loop: epochs, evaluation, LR schedules, checkpoints.

``fit`` drives any trainer with ``train_epoch`` (PipeDream or BSP through
``PipelineTrainer``, threaded, AMP, sequential) through a full
time-to-target-accuracy run, the measurement unit of the paper's Table 1:
train epochs, evaluate after each, apply the learning-rate schedule,
optionally checkpoint, and stop as soon as the target metric is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.pipeline import PipelineTrainer
from repro.runtime.trainer import TrainingHistory


@dataclass
class FitResult:
    """Outcome of a :func:`fit` run."""

    history: TrainingHistory
    epochs_run: int
    reached_target: bool
    epochs_to_target: Optional[int]


def fit(
    trainer,
    batches: Sequence[Tuple[np.ndarray, np.ndarray]],
    evaluate: Callable[[], float],
    epochs: int,
    target_metric: Optional[float] = None,
    higher_is_better: bool = True,
    schedulers: Optional[List] = None,
    checkpoint_manager: Optional[CheckpointManager] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    verbose: bool = False,
) -> FitResult:
    """Train for up to ``epochs`` epochs, stopping at the target metric.

    Args:
        trainer: any object with ``train_epoch(batches) -> float``.
        batches: the epoch's minibatches.
        evaluate: zero-argument callable returning the current metric
            (e.g. ``lambda: evaluate_accuracy(model, X, y)``); for
            pipelined trainers it should consolidate first.
        epochs: maximum epochs to run.
        target_metric: stop early once the metric reaches this value.
        schedulers: LR schedulers stepped once per epoch.
        checkpoint_manager / checkpoint_every: per-stage checkpoints (§4)
            written by pipelined trainers every N epochs.
        resume: restore the newest complete checkpoint before training.
    """
    history = TrainingHistory(strategy=type(trainer).__name__)
    start_epoch = 0
    if resume:
        if checkpoint_manager is None:
            raise ValueError("resume=True requires a checkpoint_manager")
        if not isinstance(trainer, PipelineTrainer):
            raise ValueError("resume is only supported for PipelineTrainer")
        restored = trainer.restore_checkpoint(checkpoint_manager)
        if restored is not None:
            start_epoch = restored + 1

    import time

    began = time.perf_counter()
    epochs_to_target: Optional[int] = None
    epoch = start_epoch - 1
    grad_scaler = getattr(trainer, "grad_scaler", None)
    for epoch in range(start_epoch, epochs):
        loss = trainer.train_epoch(batches)
        metric = evaluate()
        history.record(
            epoch, loss, metric, time.perf_counter() - began,
            loss_scale=None if grad_scaler is None else grad_scaler.scale,
        )
        if verbose:
            print(f"epoch {epoch}: loss={loss:.4f} metric={metric:.4f}")
        if schedulers:
            for scheduler in schedulers:
                scheduler.step()
        if (checkpoint_manager is not None
                and isinstance(trainer, PipelineTrainer)
                and (epoch + 1) % checkpoint_every == 0):
            trainer.save_checkpoint(checkpoint_manager, epoch)
        if target_metric is not None and epochs_to_target is None:
            reached = (metric >= target_metric) if higher_is_better else (
                metric <= target_metric)
            if reached:
                epochs_to_target = epoch + 1
                break

    return FitResult(
        history=history,
        epochs_run=epoch - start_epoch + 1 if epoch >= start_epoch else 0,
        reached_target=epochs_to_target is not None,
        epochs_to_target=epochs_to_target,
    )
