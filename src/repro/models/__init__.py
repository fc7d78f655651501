"""Model zoo: layered, stage-partitionable versions of the paper's models.

Every model is a :class:`~repro.models.base.LayeredModel` — an ordered list
of modules, each of which is one *layer* in PipeDream's sense (the unit of
partitioning).  Scaled-down configurations are executable on CPU via the
numpy autodiff substrate; the full-size counterparts used by the paper's
evaluation exist as analytic profiles in :mod:`repro.profiler.analytic`.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".base": "LayeredModel",
    ".mlp": "build_mlp",
    ".vgg": "build_vgg",
    ".alexnet": "build_alexnet",
    ".resnet": "build_resnet",
    ".gnmt": "build_gnmt",
    ".awd_lm": "build_awd_lm",
    ".s2vt": "build_s2vt",
    ".transformer": "build_transformer",
    ".seq2seq": "build_attention_seq2seq make_reversal_data",
})
