"""PipeDream (SOSP '19) reproduction: generalized pipeline parallelism.

Public API layers (see README.md for the architecture overview):

- :mod:`repro.autodiff`, :mod:`repro.nn`, :mod:`repro.optim` — the numpy
  training substrate (tensors, layers, optimizers).
- :mod:`repro.models`, :mod:`repro.data` — partitionable models and
  synthetic workloads.
- :mod:`repro.core` — PipeDream itself: profiles, the partitioning
  optimizer, 1F1B / 1F1B-RR schedules, weight stashing.
- :mod:`repro.profiler` — measured and analytic profilers.
- :mod:`repro.sim` — the discrete-event cluster simulator (performance).
- :mod:`repro.runtime` — real pipelined training engines (semantics).

Every package surface (this one, :mod:`repro.api` and each subpackage)
is one export table read through :func:`lazy_exports`: a name's module is
imported on the first read of that name.  ``import repro`` loads no
submodule, and a process that only plans or simulates never loads the
numpy training stack (autodiff, nn, models, optim, data, runtime).

Quick start::

    import numpy as np
    from repro import api

    model = api.build_vgg(scale=0.25)
    profile = api.profile_model(model, np.zeros((4, 3, 32, 32)))
    plan = api.PipeDreamOptimizer(profile, api.cluster_a(1)).solve()
    trainer = api.PipelineTrainer(
        model, plan.stages, api.CrossEntropyLoss(),
        lambda ps: api.SGD(ps, lr=0.05),
    )
"""

__version__ = "1.0.0"


def _import(module: str, package: str):
    """``importlib.import_module(module, package)`` through the import
    statement's machinery, which ``python -X importtime`` reports."""
    level = len(module) - len(module.lstrip("."))
    return __import__(module[level:], {"__package__": package}, None,
                      ["__name__"], level)


def lazy_exports(namespace: dict, table: dict) -> list:
    """Make the module whose ``globals()`` is ``namespace`` load its public
    names on first use, and return its ``__all__``.

    ``table`` maps a module, relative to the namespace's package, to the
    space-separated names it defines; under a key ending in ``"."`` the
    names are submodules of that package.  The module gains a PEP 562
    ``__getattr__`` that imports a name's module on its first read and
    caches the value in ``namespace``, and a ``__dir__`` listing the table.
    """
    where = {name: module for module, names in table.items()
             for name in names.split()}
    package = namespace["__package__"]

    def __getattr__(name):
        if name not in where:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = where[name]
        if module.endswith("."):
            value = _import(module + name, package)
        else:
            value = getattr(_import(module, package), name)
        namespace[name] = value
        return value

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = lambda: sorted({*namespace, *where})
    # Importing a submodule binds its name on the package, so a name that
    # the submodule of the same name defines is bound now, to win.
    for name in [n for n, module in where.items() if module == "." + n]:
        __getattr__(name)
    return list(where)


__all__ = lazy_exports(globals(), {".": "api"})
