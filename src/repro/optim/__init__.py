"""Optimizers."""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".optimizer": "Optimizer",
    ".sgd": "SGD",
    ".adam": "Adam",
    ".lars": "LARS",
})
