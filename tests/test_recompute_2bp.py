"""Recompute-aware planning + the 2BP backward-split schedule family.

Covers the ISSUE 9 acceptance bars:

* ``recompute=None`` and ``schedule_family="1f1b"`` are structural no-ops
  — identical plans, identical solver cache namespaces, and (for every
  existing engine-equivalence scenario) the 1F1B family returns the very
  same schedule object;
* the 2BP split (``OpKind.BACKWARD_W``) is priced bitwise-identically by
  the reference and event engines across every scenario, conserves total
  work exactly, and strictly shrinks the pipeline bubble on the pinned
  gnmt16 plan;
* the pinned feasibility shift: a straight gnmt16 pipeline under a
  2.2 GB/worker cap is infeasible with recompute off and feasible with
  the planner checkpointing at least one stage — production vs. the
  scalar oracle and warm/cold solves all bitwise-equal;
* the runtime executes 2BP and per-stage recompute with bitwise-identical
  losses and final weights to plain 1F1B (the semantics, not the clock,
  are unchanged).
"""

import numpy as np
import pytest

from repro.core.partition import PipeDreamOptimizer, SolverContext, Stage
from repro.core.schedule import (
    SCHEDULE_FAMILIES,
    OpKind,
    one_f_one_b_rr_schedule,
    schedule_for_family,
    split_backward_schedule,
)
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile
from repro.sim.executor import SimOptions, simulate
from repro.sim.strategies import simulate_partition

from tests.oracles import ReferenceOptimizer
from tests.test_sim_engine_equiv import SCENARIOS, assert_engines_identical

GNMT = analytic_profile("gnmt16")
TOPO_16 = cluster_a(4)
# Probed straight-pipeline feasibility floors for gnmt16 @ 16 workers:
# recompute off needs ~2.31 GB/worker, recompute on ~2.11 GB.  2.2 GB sits
# between them — the pinned cap the perf workload gates on.
PINNED_CAP = 2.2e9


# ----------------------------------------------------------------------
# Schedule family: structure and no-op guarantees
# ----------------------------------------------------------------------

class TestScheduleFamily:
    def test_families_registry(self):
        assert SCHEDULE_FAMILIES == ("1f1b", "2bp")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_1f1b_family_is_the_same_object(self, scenario):
        """The no-op guard: family "1f1b" returns the exact input object
        for every existing engine-equivalence scenario — downstream code
        cannot observe that the family axis exists."""
        sched, _, _, _ = SCENARIOS[scenario]()
        assert schedule_for_family(sched, "1f1b") is sched

    def test_unknown_family_raises(self):
        sched, _, _, _ = SCENARIOS["straight_1f1b_16w"]()
        with pytest.raises(ValueError):
            schedule_for_family(sched, "zb-h1")

    def test_split_appends_w_after_every_backward(self):
        stages = [Stage(0, 10, 1), Stage(10, len(GNMT), 1)]
        sched = one_f_one_b_rr_schedule(stages, 6)
        split = split_backward_schedule(sched)
        assert split.backward_split and not sched.backward_split
        for worker, ops in split.worker_ops.items():
            for i, op in enumerate(ops):
                if op.kind is OpKind.BACKWARD:
                    nxt = ops[i + 1]
                    assert nxt.kind is OpKind.BACKWARD_W
                    assert (nxt.stage, nxt.minibatch) == (
                        op.stage, op.minibatch)
        b = sum(1 for ops in sched.worker_ops.values()
                for op in ops if op.kind is OpKind.BACKWARD)
        w = sum(1 for ops in split.worker_ops.values()
                for op in ops if op.kind is OpKind.BACKWARD_W)
        assert b == w > 0

    def test_double_split_raises(self):
        stages = [Stage(0, len(GNMT), 1)]
        split = split_backward_schedule(one_f_one_b_rr_schedule(stages, 2))
        with pytest.raises(ValueError):
            split_backward_schedule(split)


# ----------------------------------------------------------------------
# Engine twins: 2BP and per-stage recompute priced identically
# ----------------------------------------------------------------------

class TestEngineTwins:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_2bp_engines_identical(self, scenario):
        """Both engines stay bitwise twins on the backward-split form of
        every existing equivalence scenario."""
        sched, profile, topo, options = SCENARIOS[scenario]()
        assert_engines_identical(
            split_backward_schedule(sched), profile, topo, options)

    def test_per_stage_recompute_engines_identical(self):
        stages = [Stage(0, 8, 1, recompute=True), Stage(8, 16, 1),
                  Stage(16, len(GNMT), 14, recompute=True)]
        sched = one_f_one_b_rr_schedule(stages, 32)
        assert_engines_identical(sched, GNMT, TOPO_16, None)
        assert_engines_identical(
            split_backward_schedule(sched), GNMT, TOPO_16, None)

    def test_2bp_conserves_total_work(self):
        """Splitting backward moves work between ops, never creates or
        destroys it: per-worker busy time is conserved."""
        sched, profile, topo, options = SCENARIOS["straight_1f1b_16w"]()
        base = simulate(sched, profile, topo, options)
        split = simulate(split_backward_schedule(sched), profile, topo,
                         options)
        assert set(base.compute_time_per_worker) == set(
            split.compute_time_per_worker)
        for worker, busy in base.compute_time_per_worker.items():
            assert split.compute_time_per_worker[worker] == pytest.approx(
                busy, rel=1e-12, abs=1e-12)

    def test_2bp_strictly_shrinks_the_bubble(self):
        """Grad-weight work fills drain bubbles: total idle time (the 2BP
        paper's claim) strictly drops on a straight pipeline."""
        sched, profile, topo, options = SCENARIOS["straight_1f1b_16w"]()
        base = simulate(sched, profile, topo, options)
        split = simulate(split_backward_schedule(sched), profile, topo,
                         options)

        def bubble(sim):
            busy = sim.compute_time_per_worker.values()
            return sim.total_time * len(busy) - sum(busy)

        assert split.total_time < base.total_time
        assert bubble(split) < bubble(base)
        assert bubble(split) > 0

    def test_stage_recompute_adds_one_forward_to_backward(self):
        """A recompute-on stage's backward is priced at b + f — identical
        to the global ``recompute_activations`` option when every stage
        is flagged."""
        stages = [Stage(0, 8, 1), Stage(8, len(GNMT), 1)]
        flagged = [Stage(s.start, s.stop, s.replicas, recompute=True)
                   for s in stages]
        sched_flag = one_f_one_b_rr_schedule(flagged, 8)
        sched_plain = one_f_one_b_rr_schedule(stages, 8)
        via_stages = simulate(sched_flag, GNMT, TOPO_16, None)
        via_option = simulate(sched_plain, GNMT, TOPO_16,
                              SimOptions(sync_mode="pipedream",
                                         recompute_activations=True))
        assert via_stages.records == via_option.records
        assert via_stages.total_time == via_option.total_time


# ----------------------------------------------------------------------
# Planner: recompute=None is a bitwise no-op; the pinned feasibility shift
# ----------------------------------------------------------------------

class TestPlannerRecompute:
    def test_recompute_none_is_default_namespace(self):
        default = PipeDreamOptimizer(GNMT, TOPO_16)
        explicit = PipeDreamOptimizer(GNMT, TOPO_16, recompute=None)
        assert default._cache_ns == explicit._cache_ns
        a, b = default.solve(), explicit.solve()
        assert a.stages == b.stages
        assert a.slowest_stage_time == b.slowest_stage_time

    def test_auto_without_limit_normalizes_to_default(self):
        """recompute='auto' with no cap can never fire, so it shares the
        default solver namespace (bitwise-identical tables)."""
        default = PipeDreamOptimizer(GNMT, TOPO_16)
        auto = PipeDreamOptimizer(GNMT, TOPO_16, recompute="auto")
        assert not auto._recompute_auto
        assert default._cache_ns == auto._cache_ns
        a, b = default.solve(), auto.solve()
        assert a.stages == b.stages
        assert a.slowest_stage_time == b.slowest_stage_time

    def test_invalid_recompute_rejected(self):
        with pytest.raises(ValueError):
            PipeDreamOptimizer(GNMT, TOPO_16, recompute="always")
        with pytest.raises(ValueError):
            PipeDreamOptimizer(GNMT, TOPO_16, recompute="auto",
                               memory_refine=False)

    def test_generous_limit_prefers_stash_everything(self):
        """Under a non-binding cap the auto solver must emit the exact
        recompute-free plan: the prefer-off rule keeps generous limits
        bitwise-identical."""
        free = PipeDreamOptimizer(GNMT, TOPO_16).solve()
        capped = PipeDreamOptimizer(
            GNMT, TOPO_16, memory_limit_bytes=1e12, recompute="auto"
        ).solve()
        assert capped.stages == free.stages
        assert not any(s.recompute for s in capped.stages)
        assert capped.slowest_stage_time == free.slowest_stage_time

    def test_pinned_feasibility_shift(self):
        """The acceptance pin: a straight gnmt16 pipeline under the
        2.2 GB cap is infeasible stash-everything, feasible with the
        planner checkpointing at least one stage."""
        with pytest.raises(RuntimeError):
            PipeDreamOptimizer(
                GNMT, TOPO_16, memory_limit_bytes=PINNED_CAP,
                allow_replication=False,
            ).solve()
        plan = PipeDreamOptimizer(
            GNMT, TOPO_16, memory_limit_bytes=PINNED_CAP,
            allow_replication=False, recompute="auto",
        ).solve()
        assert any(s.recompute for s in plan.stages)
        assert max(plan.memory_bytes) <= PINNED_CAP

    def test_pinned_shift_twins_bitwise_equal(self):
        plans = [
            optimizer_cls(
                GNMT, TOPO_16, memory_limit_bytes=PINNED_CAP,
                allow_replication=False, recompute="auto",
            ).solve()
            for optimizer_cls in (PipeDreamOptimizer, ReferenceOptimizer)
        ]
        assert plans[0].stages == plans[1].stages
        assert plans[0].slowest_stage_time == plans[1].slowest_stage_time
        assert plans[0].memory_bytes == plans[1].memory_bytes

    def test_warm_started_recompute_solve_matches_cold(self):
        context = SolverContext(GNMT)
        kwargs = dict(memory_limit_bytes=PINNED_CAP,
                      allow_replication=False, recompute="auto")
        cold = PipeDreamOptimizer(GNMT, TOPO_16, **kwargs).solve()
        # Warm the context with a *default* solve first: the recompute
        # namespace must not collide with the default one.
        PipeDreamOptimizer(GNMT, TOPO_16, context=context).solve()
        warm = PipeDreamOptimizer(
            GNMT, TOPO_16, context=context, **kwargs).solve()
        again = PipeDreamOptimizer(
            GNMT, TOPO_16, context=context, **kwargs).solve()
        for other in (warm, again):
            assert cold.stages == other.stages
            assert cold.slowest_stage_time == other.slowest_stage_time
            assert cold.memory_bytes == other.memory_bytes


# ----------------------------------------------------------------------
# Strategy driver: the family axis end to end
# ----------------------------------------------------------------------

class TestSimulatePartitionFamily:
    def test_default_family_is_noop(self):
        stages = [Stage(0, 10, 1), Stage(10, len(GNMT), 14)]
        base = simulate_partition(GNMT, TOPO_16, stages, num_minibatches=16)
        explicit = simulate_partition(
            GNMT, TOPO_16, stages, num_minibatches=16,
            schedule_family="1f1b")
        assert base.sim.records == explicit.sim.records
        assert base.throughput == explicit.throughput

    def test_2bp_faster_epoch_same_memory(self):
        stages = [Stage(0, 8, 1), Stage(8, 16, 1),
                  Stage(16, len(GNMT), 14)]
        base = simulate_partition(GNMT, TOPO_16, stages, num_minibatches=24)
        split = simulate_partition(
            GNMT, TOPO_16, stages, num_minibatches=24,
            schedule_family="2bp")
        assert split.epoch_time < base.epoch_time
        assert split.memory_per_worker == base.memory_per_worker


# ----------------------------------------------------------------------
# Runtime: 2BP and per-stage recompute are semantic no-ops
# ----------------------------------------------------------------------

class TestRuntime2BP:
    def _task(self):
        from repro.data import make_classification_data

        X, y = make_classification_data(num_samples=96, seed=3)
        return [(X[i * 16:(i + 1) * 16], y[i * 16:(i + 1) * 16])
                for i in range(6)]

    def _run(self, stages, family, batches):
        from repro.models import build_mlp
        from repro.nn import CrossEntropyLoss
        from repro.optim import SGD
        from repro.runtime import PipelineTrainer

        model = build_mlp(rng=np.random.default_rng(11))
        trainer = PipelineTrainer(
            model, stages, CrossEntropyLoss(),
            lambda ps: SGD(ps, lr=0.1),
        )
        loss = trainer.train_minibatches(batches, schedule_family=family)
        trainer.consolidated_model()
        return loss, {n: p.data.copy() for n, p in model.named_parameters()}

    @pytest.mark.parametrize("stages", [
        [Stage(0, 2, 1), Stage(2, 3, 1)],
        [Stage(0, 2, 2), Stage(2, 3, 1)],
        [Stage(0, 2, 1, recompute=True), Stage(2, 3, 1)],
    ], ids=["straight", "replicated", "recompute"])
    def test_2bp_training_bitwise_equals_1f1b(self, stages):
        batches = self._task()
        loss_a, weights_a = self._run(stages, "1f1b", batches)
        loss_b, weights_b = self._run(stages, "2bp", batches)
        assert loss_a == loss_b
        for name in weights_a:
            assert np.array_equal(weights_a[name], weights_b[name]), name

    def test_per_stage_recompute_bitwise_equals_stashing(self):
        batches = self._task()
        plain = [Stage(0, 2, 1), Stage(2, 3, 1)]
        flagged = [Stage(0, 2, 1, recompute=True),
                   Stage(2, 3, 1, recompute=True)]
        loss_a, weights_a = self._run(plain, "1f1b", batches)
        loss_b, weights_b = self._run(flagged, "1f1b", batches)
        assert loss_a == loss_b
        for name in weights_a:
            assert np.array_equal(weights_a[name], weights_b[name]), name
