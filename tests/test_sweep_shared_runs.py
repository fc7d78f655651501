"""A sweep runs each distinct simulation once.

``run_sweep`` shares a run across cells whose
:func:`~repro.sim.strategies.run_key` is equal, which is only sound if
equal keys really mean bitwise-equal runs.  The key drops two things a run
cannot feel, and each rule is a proof obligation tested as one:

- *bucket rule*: with no replicated stage, ``bucket_bytes`` changes no
  timeline column, no ``SimResult`` aggregate and no evaluator number;
- *family rule*: a data-parallel plan simulates the same under every
  schedule family.

Then the consequence: a four-strategy sweep CSV captured before runs were
shared (``tests/fixtures/plan_spec/sweep_strategies.csv``) stays byte-equal
in-process and over a process pool, with fewer simulations.  Regenerate the fixture only
for an intended output change:
``PYTHONPATH=src python tests/test_sweep_shared_runs.py``.
"""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.strategies as strategies_mod
from repro.core.partition import (
    PartitionResult,
    PipeDreamOptimizer,
    Stage,
    evaluate_partition_details,
)
from repro.core.profile import PRECISION_BYTES, LayerProfile, ModelProfile
from repro.core.schedule import (
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    schedule_for_family,
)
from repro.core.spec import SimSpec
from repro.core.topology import Topology, TopologyLevel, cluster_a
from repro.profiler import analytic_profile
from repro.sim import SimOptions, records_to_csv, run_sweep, simulate
from repro.sim.strategies import (
    run_key,
    simulate_partition,
    simulate_stages,
    simulate_strategy,
    unplanned_stages,
)

FIXTURE = Path(__file__).parent / "fixtures" / "plan_spec" / "sweep_strategies.csv"

KINDS = ["conv", "fc", "lstm", "embedding", "pool"]


@st.composite
def profiles(draw, max_layers=6):
    spec = draw(st.lists(
        st.tuples(st.floats(1e-4, 1.0), st.integers(1, 10 ** 8),
                  st.integers(0, 10 ** 8), st.sampled_from(KINDS)),
        min_size=2, max_size=max_layers))
    return ModelProfile("h", [
        LayerProfile(f"l{i}", c, a, w, kind=kind)
        for i, (c, a, w, kind) in enumerate(spec)
    ], batch_size=draw(st.integers(1, 64)))


@st.composite
def topologies(draw):
    """1-3 levels, every one with a per-collective setup latency α > 0."""
    levels = [
        TopologyLevel(draw(st.integers(1, 4)), draw(st.floats(1e8, 1e11)),
                      draw(st.floats(0.1, 1.0)), draw(st.floats(1e-6, 1e-3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return Topology("h", levels)


def straight_stages(draw, num_layers, max_stages):
    count = draw(st.integers(1, min(num_layers, max_stages)))
    cuts = sorted(draw(st.lists(st.integers(1, num_layers - 1),
                                min_size=count - 1, max_size=count - 1,
                                unique=True)))
    bounds = [0] + cuts + [num_layers]
    return [Stage(a, b, 1) for a, b in zip(bounds, bounds[1:])]


buckets = st.one_of(st.floats(1.0, 1e9), st.just(math.inf))


def fingerprint(sim):
    """Every aggregate of a ``SimResult`` (dicts in insertion order) and
    its timeline columns, as text: equal text is bitwise equality."""
    fields = [getattr(sim, f.name) for f in dataclasses.fields(sim)
              if f.name != "timeline" and not f.name.startswith("_")]
    _, ranks, starts, ends = sim.timeline
    return repr([list(v.items()) if isinstance(v, dict) else v
                 for v in fields] + [ranks, starts, ends])


#: schedule kind -> (schedule, sim options) of a straight stage list
STRAIGHT_RUNS = {
    "1f1b": lambda stages, m, bounds: (
        one_f_one_b_rr_schedule(stages, m), dict(sync_mode="pipedream")),
    "2bp": lambda stages, m, bounds: (
        schedule_for_family(one_f_one_b_rr_schedule(stages, m), "2bp"),
        dict(sync_mode="pipedream")),
    "mp": lambda stages, m, bounds: (
        model_parallel_schedule(len(stages), m, layer_bounds=bounds),
        dict(sync_mode="pipedream")),
    "gpipe": lambda stages, m, bounds: (
        gpipe_schedule(len(stages), m, 2, layer_bounds=bounds),
        dict(sync_mode="gpipe", recompute_activations=True,
             microbatches_per_batch=2)),
}


class TestBucketRule:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), profile=profiles(), topology=topologies(),
           bucket=buckets, minibatches=st.integers(1, 8),
           kind=st.sampled_from(sorted(STRAIGHT_RUNS)))
    def test_straight_runs_cannot_feel_the_bucket(
            self, data, profile, topology, bucket, minibatches, kind):
        workers = topology.total_workers
        stages = straight_stages(data.draw, len(profile), workers)
        bounds = [(s.start, s.stop) for s in stages]
        schedule, options = STRAIGHT_RUNS[kind](stages, minibatches, bounds)
        sim = SimSpec("pipedream", minibatches)
        shared = (run_key(profile, workers, stages, sim, bucket)
                  == run_key(profile, workers, stages, sim, None))
        # The rule collapses every straight list but a lone stage that is
        # the whole (one-worker) cluster: that is a data-parallel run.
        assert shared == (len(stages) > 1 or workers > 1)

        plain = simulate(schedule, profile, topology, SimOptions(**options))
        bucketed = simulate(schedule, profile, topology,
                            SimOptions(bucket_bytes=bucket, **options))
        assert fingerprint(bucketed) == fingerprint(plain)

        priced = evaluate_partition_details(profile, stages, topology)
        priced_bucketed = evaluate_partition_details(
            profile, stages, topology, bucket_bytes=bucket)
        assert priced_bucketed.bucket_bytes == bucket  # only the echo moves
        assert repr(dataclasses.replace(priced_bucketed, bucket_bytes=None)) \
            == repr(priced)

    def test_a_replicated_stage_feels_the_bucket(self):
        """Non-vacuity: with a replicated stage the bucket changes the key
        and the run."""
        profile = analytic_profile("vgg16")
        topology = cluster_a(1)
        stages = [Stage(0, 10, 2), Stage(10, len(profile), 2)]
        sim = SimSpec("pipedream", 8)
        assert (run_key(profile, 4, stages, sim, 1e6)
                != run_key(profile, 4, stages, sim, None))
        plain, bucketed = (
            simulate_partition(profile, topology, stages, 8, bucket_bytes=b)
            for b in (None, 1e6))
        assert bucketed.sim.total_time != plain.sim.total_time
        assert fingerprint(bucketed.sim) != fingerprint(plain.sim)


class TestFamilyRule:
    @settings(max_examples=40, deadline=None)
    @given(profile=profiles(), topology=topologies(),
           bucket=st.none() | buckets, minibatches=st.integers(1, 8))
    def test_a_data_parallel_plan_ignores_the_family(
            self, profile, topology, bucket, minibatches):
        workers = topology.total_workers
        stages = [Stage(0, len(profile), workers)]
        plan = PartitionResult(stages, 0.0, workers, profile, topology)
        assert plan.is_data_parallel
        one_f_one_b, two_bp = (SimSpec("pipedream", minibatches, family)
                               for family in ("1f1b", "2bp"))
        assert (run_key(profile, workers, stages, two_bp, bucket)
                == run_key(profile, workers, stages, one_f_one_b, bucket))
        a = simulate_stages(profile, topology, plan.stages, one_f_one_b,
                            bucket)
        b = simulate_stages(profile, topology, plan.stages, two_bp, bucket)
        assert fingerprint(a.sim) == fingerprint(b.sim)
        assert repr(dataclasses.replace(a, sim=None)) == \
            repr(dataclasses.replace(b, sim=None))

    def test_a_pipeline_feels_the_family(self):
        """Non-vacuity: a two-stage plan keys and runs 2bp apart."""
        profile = analytic_profile("vgg16")
        topology = cluster_a(1).subset(2)
        stages = [Stage(0, 10, 1), Stage(10, len(profile), 1)]
        one_f_one_b, two_bp = (SimSpec("pipedream", 8, family)
                               for family in ("1f1b", "2bp"))
        assert (run_key(profile, 2, stages, two_bp, None)
                != run_key(profile, 2, stages, one_f_one_b, None))
        a, b = (simulate_stages(profile, topology, stages, sim)
                for sim in (one_f_one_b, two_bp))
        assert fingerprint(a.sim) != fingerprint(b.sim)


class TestStrategyInTheKey:
    def test_a_planned_and_an_unplanned_run_key_apart(self):
        """A pipedream and an mp run on the same stages differ, and the
        strategy at the head of ``SimSpec.key()`` keys them apart."""
        profile = analytic_profile("vgg16")
        topology = cluster_a(1)
        stages = unplanned_stages("mp", profile, 4)
        pipedream, mp = SimSpec("pipedream", 8), SimSpec("mp", 8)
        assert (run_key(profile, 4, stages, pipedream, None)
                != run_key(profile, 4, stages, mp, None))
        a = simulate_stages(profile, topology, stages, pipedream)
        b = simulate_strategy(profile, topology, mp)
        assert a.stages == b.stages == stages
        assert fingerprint(a.sim) != fingerprint(b.sim)


# ----------------------------------------------------------------------
# The consequence: the sweep's output is the same, with fewer simulations
# ----------------------------------------------------------------------

def golden_sweep_csv(workers: int = 1) -> str:
    """2 models x all four strategies x {fp32, fp16} x {None, 25e6} x
    {1f1b, 2bp}, as CSV text."""
    return records_to_csv(run_sweep(
        ("vgg16", "gnmt8"), cluster_a(2), (4, 8), minibatches=16,
        strategies=("dp", "pipedream", "mp", "gpipe"),
        precisions=("fp32", "fp16"), bucket_sizes=(None, 25e6),
        schedule_families=("1f1b", "2bp"), workers=workers,
    ))


class TestGoldenGrid:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_csv_byte_equal_under_every_executor(self, workers):
        # Bytes, not text mode: the CSV writer's "\r\n" must survive.
        assert golden_sweep_csv(workers) == FIXTURE.read_bytes().decode()

    def test_each_distinct_run_is_simulated_once(self, monkeypatch):
        calls = []
        original = strategies_mod.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(strategies_mod, "simulate", counting)
        golden_sweep_csv()
        # 80 records; before runs were shared every one was simulated
        # (80 calls).  mp and gpipe now run once per bucket pair (16 fewer)
        # and pipedream cells share straight and data-parallel runs.
        assert len(calls) == 58


class TestBreakdownFromTheSolve:
    """A planned cell's breakdown columns come from its plan's scoring
    pass; they equal a fresh ``evaluate_partition_details`` bitwise."""

    def test_every_planned_cell_equals_the_evaluator(self):
        topology = cluster_a(2)
        records = run_sweep(
            ("vgg16", "gnmt8"), topology, (4, 8), minibatches=8,
            strategies=("pipedream",), precisions=("fp32", "fp16"),
            bucket_sizes=(None, 25e6), schedule_families=("1f1b", "2bp"),
            recomputes=(None, "auto"), memory_limit_bytes=12e9)
        assert len(records) == 64
        for record in records:
            profile = analytic_profile(
                record.model,
                bytes_per_element=PRECISION_BYTES[record.precision])
            plan = PipeDreamOptimizer(
                profile, topology, memory_limit_bytes=12e9,
                bucket_bytes=record.bucket_bytes,
                recompute=record.recompute).solve(record.workers)
            details = evaluate_partition_details(
                profile, plan.stages, topology.subset(record.workers),
                bucket_bytes=record.bucket_bytes)
            assert (record.stage_seconds, record.boundary_seconds,
                    record.stage_memory_bytes) == (
                details.stage_times, details.boundary_times,
                details.memory_bytes)


if __name__ == "__main__":
    FIXTURE.write_bytes(golden_sweep_csv().encode())
    print(f"wrote {FIXTURE}")
