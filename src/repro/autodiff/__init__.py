"""Reverse-mode automatic differentiation over numpy arrays.

This package is the computational substrate for the PipeDream reproduction.
It provides a :class:`~repro.autodiff.engine.Tensor` type with a tape-based
backward pass, a library of differentiable operations (including conv2d,
pooling, embedding lookups, and the pieces needed for LSTMs).  The
finite-difference gradient check the test suite runs against it lives in
``tests/oracles/gradcheck.py``.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".engine": "Tensor Function no_grad",
    ".": "functional",
})
