"""ASP's oracle: the asynchronous parameter-server trainer, re-enacted.

:class:`ASPTrainer` trains one whole-model replica per worker against a
central copy of the weights, round-robin: each step pushes a gradient
computed on the snapshot its worker pulled after its previous push.  The
runtime runs ASP as :func:`~repro.core.schedule.asp_schedule` through
:class:`~repro.runtime.pipeline.PipelineTrainer` instead, and
``tests/test_runtime_dataparallel.py`` holds the two bitwise equal over one
epoch.  They differ across epochs on purpose: this class carries its
workers' staleness over the epoch boundary, while the table drains at the
end of every epoch, as PipeDream's own epochs do.  Nothing under ``src/``
imports this module.

The class was moved here unchanged from ``runtime/dataparallel.py``.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.models.base import LayeredModel
from repro.optim.optimizer import Optimizer


class ASPTrainer:
    """Asynchronous data parallelism with a central parameter server.

    Workers hold stale snapshots: worker ``w`` computes its gradient against
    the parameters it fetched after its *previous* push, so in steady state
    every update is computed from weights ``num_workers - 1`` pushes old —
    the staleness that destroys statistical efficiency in §5.2.
    """

    def __init__(
        self,
        model: LayeredModel,
        loss_fn,
        optimizer_factory: Callable[[List], Optimizer],
        num_workers: int,
    ):
        self.model = model  # the parameter server's live weights
        self.loss_fn = loss_fn
        self.num_workers = num_workers
        self.optimizer = optimizer_factory(model.parameters())
        self.named_params = list(model.named_parameters())
        # Per-worker stale replicas (share architecture, own weights).
        self.worker_models = [copy.deepcopy(model) for _ in range(num_workers)]
        self._step = 0

    def _pull(self, worker: int) -> None:
        self.worker_models[worker].load_state_dict(self.model.state_dict())

    def train_step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One asynchronous worker step (workers proceed round-robin)."""
        worker = self._step % self.num_workers
        self._step += 1
        replica = self.worker_models[worker]
        replica.zero_grad()
        loss = self.loss_fn(replica(x), y)
        loss.backward()
        grads = [
            (p.grad if p.grad is not None else np.zeros_like(p.data))
            for _, p in replica.named_parameters()
        ]
        # Push: apply the stale gradient to the server's live weights.
        self.optimizer.step(grads)
        # Pull: the worker picks up the fresh weights for its next batch.
        self._pull(worker)
        return loss.item()

    def train_epoch(self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
        losses = [self.train_step(x, y) for x, y in batches]
        return float(np.mean(losses)) if losses else float("nan")
