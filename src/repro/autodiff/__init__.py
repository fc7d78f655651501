"""Reverse-mode automatic differentiation over numpy arrays.

This package is the computational substrate for the PipeDream reproduction.
It provides a :class:`~repro.autodiff.engine.Tensor` type with a tape-based
backward pass, a library of differentiable operations (including conv2d,
pooling, embedding lookups, and the pieces needed for LSTMs), and numerical
gradient checking utilities used throughout the test suite.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".engine": "Tensor Function no_grad",
    ".": "functional",
    ".gradcheck": "gradcheck numerical_gradient",
})
