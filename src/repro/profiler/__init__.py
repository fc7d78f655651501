"""PipeDream's profiler (§3.1, Figure 6).

Two profilers feed the partitioner:

- :mod:`repro.profiler.measured` times the executable numpy models layer by
  layer over a sampling run, exactly mirroring the paper's "short profiling
  run on a single GPU".
- :mod:`repro.profiler.analytic` reconstructs the paper's seven full-size
  models as per-layer (T_l, a_l, w_l) profiles from published architecture
  statistics and a device FLOP-rate model — the substitute for profiling on
  real V100s.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".flops": "flops_of",
    ".measured": "profile_model",
    ".analytic": "analytic_profile available_models clear_profile_cache "
                 "profile_cache_stats ANALYTIC_MODELS",
})
