"""Loss modules."""

from __future__ import annotations

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.engine import Tensor
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Mean cross-entropy over integer class targets from raw logits."""

    def forward(self, logits: Tensor, targets) -> Tensor:
        if isinstance(targets, Tensor):
            targets = targets.data
        return F.cross_entropy(logits, np.asarray(targets, dtype=np.int64))
