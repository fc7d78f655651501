"""Differentiable primitive operations.

Each class implements ``forward`` over raw numpy arrays and ``backward``
returning one gradient per tensor parent (``None`` for non-differentiable
parents such as integer index arrays).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autodiff.engine import Function, unbroadcast


# ----------------------------------------------------------------------
# Elementwise binary
# ----------------------------------------------------------------------
class Add(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a + b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(grad, b_shape)


class Sub(Function):
    def forward(self, a, b):
        self.save_for_backward(a.shape, b.shape)
        return a - b

    def backward(self, grad):
        a_shape, b_shape = self.saved
        return unbroadcast(grad, a_shape), unbroadcast(-grad, b_shape)


class Mul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a * b

    def backward(self, grad):
        a, b = self.saved
        return unbroadcast(grad * b, a.shape), unbroadcast(grad * a, b.shape)


class Div(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a / b

    def backward(self, grad):
        a, b = self.saved
        grad_a = grad / b
        grad_b = -grad * a / (b * b)
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


class MatMul(Function):
    def forward(self, a, b):
        self.save_for_backward(a, b)
        return a @ b

    def backward(self, grad):
        a, b = self.saved
        if a.ndim == 1 and b.ndim == 1:
            return grad * b, grad * a
        if b.ndim == 1:
            grad_a = np.expand_dims(grad, -1) * b
            grad_b = np.tensordot(grad, a, axes=(range(grad.ndim), range(grad.ndim)))
            return grad_a, grad_b
        if a.ndim == 1:
            grad_a = (grad[..., None, :] * b).sum(-1).reshape(a.shape)
            grad_b = np.outer(a, grad) if grad.ndim == 1 else a[:, None] * grad
            return grad_a, grad_b
        grad_a = grad @ np.swapaxes(b, -1, -2)
        grad_b = np.swapaxes(a, -1, -2) @ grad
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)


# ----------------------------------------------------------------------
# Elementwise unary
# ----------------------------------------------------------------------
class Neg(Function):
    def forward(self, a):
        return -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    def forward(self, a, exponent: float):
        self.exponent = exponent
        self.save_for_backward(a)
        return a ** exponent

    def backward(self, grad):
        (a,) = self.saved
        return (grad * self.exponent * np.power(a, self.exponent - 1),)


class Exp(Function):
    def forward(self, a):
        out = np.exp(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    def forward(self, a):
        self.save_for_backward(a)
        return np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class Tanh(Function):
    def forward(self, a):
        out = np.tanh(a)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)


class Sigmoid(Function):
    def forward(self, a):
        out = 1.0 / (1.0 + np.exp(-a))
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out * (1.0 - out),)


class ReLU(Function):
    def forward(self, a):
        mask = a > 0
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Abs(Function):
    def forward(self, a):
        self.save_for_backward(np.sign(a))
        return np.abs(a)

    def backward(self, grad):
        (sign,) = self.saved
        return (grad * sign,)


class Clip(Function):
    def forward(self, a, low: float, high: float):
        mask = (a >= low) & (a <= high)
        self.save_for_backward(mask)
        return np.clip(a, low, high)

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


class Cast(Function):
    def forward(self, a, dtype):
        self.src_dtype = a.dtype
        return a.astype(dtype)

    def backward(self, grad):
        return (grad.astype(self.src_dtype),)


class Dropout(Function):
    """Inverted dropout; the mask is drawn from the provided RNG."""

    def forward(self, a, p: float, rng: np.random.Generator):
        keep = 1.0 - p
        mask = (rng.random(a.shape) < keep) / keep
        self.save_for_backward(mask)
        return a * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
class Reshape(Function):
    def forward(self, a, shape: Tuple[int, ...]):
        self.save_for_backward(a.shape)
        return a.reshape(shape)

    def backward(self, grad):
        (shape,) = self.saved
        return (grad.reshape(shape),)


class Transpose(Function):
    def forward(self, a, axes: Tuple[int, ...]):
        self.axes = axes
        return np.transpose(a, axes)

    def backward(self, grad):
        inverse = np.argsort(self.axes)
        return (np.transpose(grad, inverse),)


class Slice(Function):
    def forward(self, a, index):
        self.index = index
        self.save_for_backward(a.shape, a.dtype)
        return a[index]

    def backward(self, grad):
        shape, dtype = self.saved
        out = np.zeros(shape, dtype=dtype)
        np.add.at(out, self.index, grad)
        return (out,)


class Stack(Function):
    def forward(self, *arrays, axis: int = 0):
        self.axis = axis
        return np.stack(arrays, axis=axis)

    def backward(self, grad):
        pieces = np.split(grad, grad.shape[self.axis], axis=self.axis)
        return tuple(np.squeeze(p, axis=self.axis) for p in pieces)


class Concat(Function):
    def forward(self, *arrays, axis: int = 0):
        self.axis = axis
        self.sizes = [a.shape[axis] for a in arrays]
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad):
        splits = np.cumsum(self.sizes)[:-1]
        return tuple(np.split(grad, splits, axis=self.axis))


class Pad2d(Function):
    """Zero padding on the last two axes of an NCHW tensor."""

    def forward(self, a, padding: Tuple[int, int]):
        ph, pw = padding
        self.padding = (ph, pw)
        if ph == 0 and pw == 0:
            return a
        return np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    def backward(self, grad):
        ph, pw = self.padding
        if ph == 0 and pw == 0:
            return (grad,)
        h, w = grad.shape[-2], grad.shape[-1]
        return (grad[..., ph : h - ph, pw : w - pw],)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _normalize_axis(axis, ndim) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


class Sum(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.save_for_backward(a.shape)
        return a.sum(axis=self.axis, keepdims=keepdims)

    def backward(self, grad):
        (shape,) = self.saved
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, shape).copy(),)


class Mean(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        self.save_for_backward(a.shape)
        return a.mean(axis=self.axis, keepdims=keepdims)

    def backward(self, grad):
        (shape,) = self.saved
        if self.axis is None:
            count = int(np.prod(shape))
        else:
            count = int(np.prod([shape[i] for i in self.axis]))
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        return (np.broadcast_to(grad, shape).copy() / count,)


class Max(Function):
    def forward(self, a, axis=None, keepdims: bool = False):
        self.axis = _normalize_axis(axis, a.ndim)
        self.keepdims = keepdims
        out_keep = a.max(axis=self.axis, keepdims=True)
        self.save_for_backward(a, out_keep)
        return out_keep if keepdims else a.max(axis=self.axis)

    def backward(self, grad):
        a, out = self.saved
        mask = (a == out).astype(a.dtype)
        mask /= mask.sum(axis=self.axis, keepdims=True)
        if self.axis is not None and not self.keepdims:
            grad = np.expand_dims(grad, self.axis)
        else:
            grad = grad.reshape(out.shape)
        return (mask * grad,)


# ----------------------------------------------------------------------
# Indexing / embedding
# ----------------------------------------------------------------------
class EmbeddingLookup(Function):
    """Row gather from a weight matrix; backward scatters with np.add.at."""

    def forward(self, weight, indices):
        self.indices = np.asarray(indices)
        self.save_for_backward(weight.shape, weight.dtype)
        return weight[self.indices]

    def backward(self, grad):
        shape, dtype = self.saved
        out = np.zeros(shape, dtype=dtype)
        np.add.at(out, self.indices, grad)
        return (out,)


class LogSoftmax(Function):
    def forward(self, a, axis: int = -1):
        self.axis = axis
        shifted = a - a.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - logsumexp
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        softmax = np.exp(out)
        return (grad - softmax * grad.sum(axis=self.axis, keepdims=True),)


class Softmax(Function):
    def forward(self, a, axis: int = -1):
        self.axis = axis
        shifted = a - a.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out = exp / exp.sum(axis=axis, keepdims=True)
        self.save_for_backward(out)
        return out

    def backward(self, grad):
        (out,) = self.saved
        dot = (grad * out).sum(axis=self.axis, keepdims=True)
        return (out * (grad - dot),)
