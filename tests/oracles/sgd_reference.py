"""The runtime's semantic reference: vanilla minibatch SGD on one worker.

:class:`SequentialTrainer` is :class:`~repro.runtime.pipeline.PipelineTrainer`
on ``[Stage(0, L, 1)]`` spelled out directly, and
``tests/test_property_runtime.py`` holds the two equal.  Every schedule the
interpreter runs is validated against it: the GPipe table (any microbatch
count, any stages) and BSP (one stage of ``n`` replicas, against SGD on the
concatenated batch) match it to rounding, and PipeDream, BSP and ASP with
one worker each reproduce it exactly.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class SequentialTrainer:
    """Vanilla minibatch SGD on a single worker."""

    def __init__(self, model, loss_fn, optimizer):
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = optimizer

    def train_minibatch(self, x, y) -> float:
        self.model.zero_grad()
        loss = self.loss_fn(self.model(x), y)
        loss.backward()
        self.optimizer.step()
        return loss.item()

    def train_epoch(self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
        total = 0.0
        for x, y in batches:
            total += self.train_minibatch(x, y)
        return total / max(len(batches), 1)
