"""GPipe's microbatch split, evaluation, training history."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.engine import no_grad
from repro.nn.module import Module


@dataclass
class TrainingHistory:
    """Per-epoch training record, comparable across strategies."""

    strategy: str
    epochs: List[int] = field(default_factory=list)
    train_loss: List[float] = field(default_factory=list)
    eval_metric: List[float] = field(default_factory=list)
    wall_time: List[float] = field(default_factory=list)
    #: Loss scale at the end of each epoch; empty for fp32 runs.
    loss_scale: List[float] = field(default_factory=list)

    def record(self, epoch: int, loss: float, metric: float, elapsed: float,
               loss_scale: Optional[float] = None) -> None:
        self.epochs.append(epoch)
        self.train_loss.append(loss)
        self.eval_metric.append(metric)
        self.wall_time.append(elapsed)
        if loss_scale is not None:
            self.loss_scale.append(loss_scale)

    @property
    def final_metric(self) -> float:
        return self.eval_metric[-1] if self.eval_metric else math.nan


def _num_samples(inputs) -> int:
    """Sample count of a batch, which may be a tuple of aligned arrays."""
    return len(inputs[0]) if isinstance(inputs, tuple) else len(inputs)


def _slice_samples(inputs, start: int, stop: int):
    if isinstance(inputs, tuple):
        return tuple(element[start:stop] for element in inputs)
    return inputs[start:stop]


def split_microbatches(batches: Sequence[Tuple], num_microbatches: int) -> List[Tuple]:
    """GPipe's split (§2.2): each batch into ``num_microbatches`` contiguous
    microbatches whose sizes differ by at most one (10 into 4 is 3+3+2+2).

    Microbatch ``k`` of batch ``i`` lands at ``i * num_microbatches + k``,
    the id :func:`~repro.core.schedule.gpipe_schedule` gives it.
    """
    micros = []
    for x, y in batches:
        n = len(y)
        if not 1 <= num_microbatches <= n:
            raise ValueError(f"num_microbatches must be in [1, {n}] for a "
                             f"batch of {n}, got {num_microbatches}")
        size, extra = divmod(n, num_microbatches)
        bounds = [k * size + min(k, extra) for k in range(num_microbatches + 1)]
        micros += [(_slice_samples(x, a, b), y[a:b])
                   for a, b in zip(bounds, bounds[1:])]
    return micros


def evaluate_accuracy(model: Module, inputs, targets, batch_size: int = 64) -> float:
    """Top-1 accuracy; for sequence outputs, per-token accuracy."""
    correct, count = 0, 0
    with no_grad():
        for start in range(0, _num_samples(inputs), batch_size):
            x = _slice_samples(inputs, start, start + batch_size)
            y = np.asarray(targets[start : start + batch_size])
            logits = model(x)
            pred = logits.data.argmax(axis=-1)
            correct += int((pred == y).sum())
            count += y.size
    return correct / max(count, 1)
