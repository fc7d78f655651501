"""Optimizers and learning-rate schedulers."""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".optimizer": "Optimizer",
    ".sgd": "SGD",
    ".adam": "Adam",
    ".lars": "LARS",
    ".lr_scheduler": "LRScheduler StepLR WarmupLR",
})
