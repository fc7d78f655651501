"""Parallel ``run_sweep`` is an optimization, not a semantic change.

``workers=N`` maps the (model, strategy) cells over a process pool; the
records must be *identical* (same keys, same floats, same order) to the
``workers=1`` in-process run.  A raising cell must not
kill the sweep: every other cell completes and the failure is reported
per cell via :class:`SweepError`, which carries the surviving records.
"""

import pytest

from repro.core.partition import SolverContextPool
from repro.core.profile import PRECISION_BYTES
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile, clear_profile_cache
from repro.sim import SweepError, run_sweep
from repro.sim import sweep as sweep_mod
from tests.oracles import price_sweep_record

TOPO = cluster_a(4)
MODELS = ["vgg16", "resnet50"]
COUNTS = [4, 8]


def run(**kwargs):
    defaults = dict(models=MODELS, topology=TOPO, worker_counts=COUNTS,
                    strategies=("dp", "pipedream"), minibatches=16)
    defaults.update(kwargs)
    return run_sweep(**defaults)


@pytest.fixture()
def serial_records():
    return run(workers=1)


def test_parallel_identical_to_serial(serial_records):
    parallel = run(workers=2)
    assert len(parallel) == len(serial_records)
    # Cell-for-cell: same keys in the same order, bitwise-equal floats.
    for got, want in zip(parallel, serial_records):
        assert got == want


def test_more_workers_than_cells(serial_records):
    assert run(workers=32) == serial_records


def test_single_cell_grid_matches():
    serial = run(models=["vgg16"], strategies=("pipedream",), workers=1)
    parallel = run(models=["vgg16"], strategies=("pipedream",), workers=4)
    assert parallel == serial


def test_profile_cache_does_not_change_results(serial_records):
    clear_profile_cache()
    cold = run(workers=2)
    warm = run(workers=2)
    assert cold == serial_records
    assert warm == serial_records


def test_records_match_oracle_stack(serial_records):
    """Every record's per-stage breakdown is what the scalar DP plus the
    closed-form evaluator price for the same cell, bitwise."""
    for record in serial_records:
        priced = price_sweep_record(record, TOPO)
        assert record.stage_seconds == priced.stage_times
        assert record.boundary_seconds == priced.boundary_times


def test_warm_contexts_do_not_change_results(serial_records):
    from repro.core.partition import SolverContextPool

    contexts = SolverContextPool()
    warm = run(workers=1, contexts=contexts)
    assert warm == serial_records
    # The pool actually served the sweep's pipedream cells.
    stats = contexts.stats()
    assert len(stats["contexts"]) == stats["pool"]["entries"]
    assert {ctx["model"] for ctx in stats["contexts"].values()} == set(MODELS)
    assert all(ctx["solves"] > 0 for ctx in stats["contexts"].values())
    # And a second sweep over the same pool reuses tables, bitwise-equal.
    again = run(workers=1, contexts=contexts)
    assert again == serial_records


# ----------------------------------------------------------------------
# Failure isolation: one bad cell must not kill the sweep.
# ----------------------------------------------------------------------

@pytest.fixture()
def failing_dp_for_resnet(monkeypatch):
    """Make the (resnet50, dp) cell raise; every other cell untouched."""
    original = sweep_mod.STRATEGIES["dp"]

    def exploding(profile, topo, m, **kw):
        if profile.model_name == "resnet50":
            raise RuntimeError("injected cell failure")
        return original(profile, topo, m, **kw)

    monkeypatch.setitem(sweep_mod.STRATEGIES, "dp", exploding)


def test_failing_cell_reported_per_cell(failing_dp_for_resnet):
    with pytest.raises(SweepError) as excinfo:
        run(workers=1)
    error = excinfo.value
    assert len(error.failures) == 1
    failure = error.failures[0]
    assert failure.model == "resnet50"
    assert failure.strategy == "dp"
    assert "injected cell failure" in failure.error
    assert "(resnet50, dp, fp32)" in str(error)
    # The surviving cells all completed: every record except resnet50/dp.
    keys = {(r.model, r.strategy) for r in error.records}
    assert ("resnet50", "dp") not in keys
    assert ("resnet50", "pipedream") in keys
    assert ("vgg16", "dp") in keys


def test_error_records_are_the_serial_survivors(serial_records,
                                                failing_dp_for_resnet):
    with pytest.raises(SweepError) as excinfo:
        run(workers=1)
    expected = [r for r in serial_records
                if not (r.model == "resnet50" and r.strategy == "dp")]
    assert excinfo.value.records == expected


def over_a_tiny_cap(workers):
    """Every pipedream cell fails to plan under a 1 kB cap; the dp cells,
    which do not plan, survive.  A real failure, so a pool's workers meet
    it whatever their start method."""
    with pytest.raises(SweepError) as excinfo:
        run(workers=workers, memory_limit_bytes=1000)
    return excinfo.value


def test_pool_isolates_failing_cells_like_the_serial_run(serial_records):
    serial, pooled = over_a_tiny_cap(1), over_a_tiny_cap(2)
    assert [(f.model, f.strategy) for f in serial.failures] == [
        (model, "pipedream") for model in MODELS]
    assert pooled.failures == serial.failures
    assert pooled.records == serial.records == [
        r for r in serial_records if r.strategy == "dp"]


# ----------------------------------------------------------------------
# A pipedream cell is one plan, whatever families it is simulated under
# ----------------------------------------------------------------------

FAMILIES = ("1f1b", "2bp")
TOPO_2 = cluster_a(2)


def family_sweep(families=FAMILIES, **kwargs):
    return run_sweep(["gnmt8"], TOPO_2, [4, 8], strategies=("pipedream",),
                     schedule_families=families, **kwargs)


def solves(pool, precision="fp32"):
    profile = analytic_profile(
        "gnmt8", bytes_per_element=PRECISION_BYTES[precision])
    return pool.get(profile).stats()["solves"]


def test_family_twins_share_one_solve_per_count():
    pool = SolverContextPool()
    both = family_sweep(contexts=pool)
    assert solves(pool) == 2  # one per worker count, not per (count, family)
    one_f_one_b, two_bp = (family_sweep((family,)) for family in FAMILIES)
    assert both == [record for pair in zip(one_f_one_b, two_bp)
                    for record in pair]
    assert [r.schedule_family for r in both] == list(FAMILIES) * 2


def test_failing_solve_fails_every_family_of_its_cell(monkeypatch):
    class Exploding(sweep_mod.PipeDreamOptimizer):
        def solve(self, num_workers=None):
            if self.profile.model_name == "gnmt8":
                raise RuntimeError("injected solve failure")
            return super().solve(num_workers)

    monkeypatch.setattr(sweep_mod, "PipeDreamOptimizer", Exploding)
    with pytest.raises(SweepError) as excinfo:
        run_sweep(["gnmt8", "vgg16"], TOPO_2, [4, 8],
                  strategies=("dp", "pipedream"), minibatches=16,
                  schedule_families=FAMILIES)
    error = excinfo.value
    assert [(f.model, f.strategy, f.schedule_family)
            for f in error.failures] == [
        ("gnmt8", "pipedream", "1f1b"), ("gnmt8", "pipedream", "2bp")]
    assert all("injected solve failure" in f.error for f in error.failures)
    monkeypatch.undo()
    healthy = run_sweep(["gnmt8", "vgg16"], TOPO_2, [4, 8],
                        strategies=("dp", "pipedream"), minibatches=16,
                        schedule_families=FAMILIES)
    assert error.records == [
        r for r in healthy
        if (r.model, r.strategy) != ("gnmt8", "pipedream")]
