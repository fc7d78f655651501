"""Scaled-down ResNet (He et al.) with basic residual blocks.

Each residual block is one partitionable layer.  ResNet's signature
property for PipeDream — compact convolutional weights but large output
activations — makes data parallelism the *optimal* configuration (Table 1),
and this scaled model preserves that weight/activation balance.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autodiff import functional as F
from repro.models.base import LayeredModel
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ReLU,
    Sequential,
)


class BasicBlock(Module):
    """Two 3x3 convs with identity (or 1x1-projected) skip connection."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = None

    def forward(self, x):
        out = F.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        skip = self.shortcut(x) if self.shortcut is not None else x
        return F.relu(out + skip)


def build_resnet(
    blocks_per_group: int = 2,
    base_channels: int = 16,
    num_classes: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> LayeredModel:
    """ResNet for 32x32 inputs: a stem, three groups of residual blocks at
    increasing widths and strides, then pooled classification."""
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: List[Tuple[str, Module]] = [
        (
            "stem",
            Sequential(
                Conv2d(3, base_channels, 3, padding=1, bias=False, rng=rng),
                BatchNorm2d(base_channels),
                ReLU(),
            ),
        )
    ]
    channels = base_channels
    in_channels = base_channels
    for group in range(3):
        stride = 1 if group == 0 else 2
        for block in range(blocks_per_group):
            name = f"group{group + 1}_block{block + 1}"
            layers.append(
                (name, BasicBlock(in_channels, channels, stride if block == 0 else 1, rng=rng))
            )
            in_channels = channels
        channels *= 2
    layers.append(("avgpool", GlobalAvgPool2d()))
    layers.append(("fc", Linear(in_channels, num_classes, rng=rng)))
    return LayeredModel("resnet-small", layers)
