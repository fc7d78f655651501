"""Finite-difference gradient checking: the autodiff engine's oracle."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff.engine import Tensor


def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. input ``wrt``."""
    target = inputs[wrt]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(*inputs).item()
        flat[i] = original - eps
        minus = fn(*inputs).item()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> bool:
    """Verify analytic gradients of scalar ``fn`` against finite differences.

    Raises ``AssertionError`` with diagnostics on mismatch; returns True on
    success so it can be used directly in test assertions.
    """
    for t in inputs:
        t.grad = None
    out = fn(*inputs)
    out.backward()
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numerical_gradient(fn, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs diff {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
