"""User-facing functional API over the primitive ops."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autodiff import convops, ops
from repro.autodiff.engine import Tensor, concatenate, stack


def relu(x: Tensor) -> Tensor:
    return ops.ReLU.apply(x)


def tanh(x: Tensor) -> Tensor:
    return ops.Tanh.apply(x)


def sigmoid(x: Tensor) -> Tensor:
    return ops.Sigmoid.apply(x)


def exp(x: Tensor) -> Tensor:
    return ops.Exp.apply(x)


def log(x: Tensor) -> Tensor:
    return ops.Log.apply(x)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return ops.Softmax.apply(x, axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return ops.LogSoftmax.apply(x, axis=axis)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    if not training or p <= 0.0:
        return x
    return ops.Dropout.apply(x, p=p, rng=rng)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x @ weight.T + bias, matching the usual (out, in) weight layout."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    return ops.EmbeddingLookup.apply(weight, indices)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    if bias is None:
        zero_bias = Tensor(np.zeros(weight.shape[0], dtype=weight.dtype))
        return convops.Conv2d.apply(x, weight, zero_bias, stride=stride, padding=padding)
    return convops.Conv2d.apply(x, weight, bias, stride=stride, padding=padding)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    return convops.MaxPool2d.apply(x, kernel=kernel, stride=stride or kernel)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    return convops.AvgPool2d.apply(x, kernel=kernel, stride=stride or kernel)


def global_avg_pool2d(x: Tensor) -> Tensor:
    return convops.GlobalAvgPool2d.apply(x)


def pad2d(x: Tensor, padding: Sequence[int]) -> Tensor:
    return ops.Pad2d.apply(x, padding=tuple(padding))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``targets`` given raw ``logits``.

    ``logits`` may be (N, V) or (N, T, V); targets have the matching integer
    shape.
    """
    logp = log_softmax(logits, axis=-1)
    targets = np.asarray(targets)
    flat = logp.reshape(-1, logp.shape[-1])
    idx = (np.arange(flat.shape[0]), targets.reshape(-1))
    picked = flat[idx]
    return -picked.mean()


def nll_loss(logp: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities."""
    targets = np.asarray(targets)
    flat = logp.reshape(-1, logp.shape[-1])
    idx = (np.arange(flat.shape[0]), targets.reshape(-1))
    return -flat[idx].mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean()


__all__ = [
    "relu",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "softmax",
    "log_softmax",
    "dropout",
    "linear",
    "embedding",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "pad2d",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "stack",
    "concatenate",
]
