"""Planning processes never load the numpy training stack.

Every package surface loads a name's module on first use (see
:func:`repro.lazy_exports`), so what a process imports is what it calls.
Each check runs in a fresh interpreter under ``python -X importtime`` and
pins the set of ``repro`` modules it loads, not how long that takes.  The
nesting of the import-time report names who imported a forbidden module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The training stack: the numpy stand-in for PyTorch (DESIGN.md §2).
TRAINING = ("autodiff", "nn", "models", "optim", "data", "runtime")

SOLVE = """
from repro.api import PipeDreamOptimizer, analytic_profile, cluster_a
from repro.core.partition import evaluate_partition_on_topology
from repro.sim import pipeline_memory_footprint
profile, topology = analytic_profile("vgg16"), cluster_a(2)
result = PipeDreamOptimizer(profile, topology).solve()
evaluate_partition_on_topology(profile, result.stages, topology)
pipeline_memory_footprint(profile, result.stages)
"""

CHECKS = {
    "solve": SOLVE,
    "simulate": """
from repro.api import Stage, analytic_profile, cluster_a, simulate_partition
simulate_partition(analytic_profile("vgg16"), cluster_a(1),
                   [Stage(0, 20, 3), Stage(20, 21, 1)], num_minibatches=8)
""",
    "sweep": """
from repro.api import cluster_a
from repro.sim import run_sweep
run_sweep(["alexnet"], cluster_a(1), [4], executor="serial", minibatches=8)
""",
    "serve": """
from repro.serve import PlannerService
PlannerService().plan({"model": "vgg16", "cluster": "a", "servers": 2})
""",
    "cli": """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["plan", "vgg16"])
""",
}


def importtime(code):
    """``[(depth, module)]`` in the order ``python -X importtime`` reports
    them: a module after everything it imported, nested one deeper."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            name = line.rsplit("|", 1)[1]
            if name.strip() != "imported package":
                rows.append((len(name) - len(name.lstrip()), name.strip()))
    return rows


def loaded(rows):
    return {name for _, name in rows if name.split(".")[0] == "repro"}


def importer(rows, index):
    """The module whose import statement loaded ``rows[index]``, or
    ``None`` when the check's own code (or a function it called) did."""
    depth = rows[index][0]
    return next((name for d, name in rows[index + 1:] if d < depth), None)


def training(name):
    parts = name.split(".")
    return parts[0] == "repro" and len(parts) > 1 and parts[1] in TRAINING


def first_training_module(rows):
    """``"<module> (imported by <importer>)"`` for the first training-stack
    module ``rows`` loads from outside the stack, or ``None``."""
    for index, (_, name) in enumerate(rows):
        if training(name):
            by = importer(rows, index) or "the check"
            if not training(by):
                return f"{name} (imported by {by})"
    return None


def test_bare_surfaces_load_nothing_else():
    assert loaded(importtime("import repro, repro.api")) == {"repro", "repro.api"}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_planning_never_loads_the_training_stack(check):
    rows = importtime(CHECKS[check])
    found = first_training_module(rows)
    assert found is None, found
    if check == "solve":
        # 20 = the planner, the analytic profiler, the simulator's memory
        # and network kernels, their packages and the span registry.
        assert len(loaded(rows)) <= 20, sorted(loaded(rows))
        assert "repro.utils.obs" in loaded(rows)


#: ``numpy.ma`` costs about a megabyte of RSS; a plain ``np.unique(x)``
#: imports it, ``return_inverse`` / ``return_index`` calls do not.
NO_MASKED_ARRAYS = {
    "capped-recompute-tp-solve": """
from repro.api import PipeDreamOptimizer, analytic_profile, cluster_a
profile, topology = analytic_profile("gnmt8"), cluster_a(2)
free = PipeDreamOptimizer(profile, topology).solve()
PipeDreamOptimizer(profile, topology, recompute="auto", tp_degrees=(1, 2, 4),
                   memory_limit_bytes=0.4 * max(free.memory_bytes)).solve()
""",
    "simulate": CHECKS["simulate"],
    "sweep": CHECKS["sweep"],
}


@pytest.mark.parametrize("check", sorted(NO_MASKED_ARRAYS))
def test_planning_never_loads_numpy_ma(check):
    rows = importtime(NO_MASKED_ARRAYS[check])
    names = [name for _, name in rows]
    assert "numpy.ma" not in names, (
        importer(rows, names.index("numpy.ma")) or "the check")


def test_the_report_names_the_importer():
    rows = importtime("from repro.profiler import profile_model")
    assert first_training_module(rows) == (
        "repro.autodiff.engine (imported by repro.profiler.measured)")
