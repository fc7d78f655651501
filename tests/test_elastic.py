"""Elastic recovery: warm re-planning, checkpoint remap, resumed state.

Locks the recovery invariants:

- a warm-started re-plan on the degraded topology is bitwise-equal to a
  cold :class:`PipeDreamOptimizer` solve under the same
  :class:`PlanSpec` (warmth buys time, never a different plan);
- :func:`run_with_recovery` is deterministic in every simulated-time
  field, ``recovery_total_seconds`` and ``minibatches_lost`` included
  (the re-plan's wall clock is reported beside them, never added);
- every run of the cycle is the scenario's: the oracle is the fault-free
  :func:`simulate_strategy` run of the same ``PlanSpec`` x ``SimSpec``,
  and the recovery plan honours the plan's memory cap;
- remapping per-stage checkpoints onto a different partition preserves
  every parameter bitwise, and training resumed through the remap path
  is bitwise-equal to a fresh run started on the surviving partition
  from the same weights.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.partition import PipeDreamOptimizer, SolverContext, Stage
from repro.core.schedule import OpKind
from repro.core.spec import PlanSpec, SimSpec
from repro.core.topology import cluster_a
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.profiler import analytic_profile
from repro.runtime import (
    CheckpointManager,
    ElasticCoordinator,
    PipelineTrainer,
    remap_checkpoints,
    restore_remapped,
    surviving_worker_count,
)
from repro.runtime.elastic import consolidated_layer_states, stage_states_for
from repro.sim.faults import FaultEvent, FaultSchedule
from repro.sim.memory import pipeline_memory_footprint
from repro.sim.strategies import simulate_strategy

from tests.test_property_runtime import make_model, make_task

VGG = analytic_profile("vgg16")
TOPO_A = cluster_a(4)
LOSS = CrossEntropyLoss()
CRASH = FaultSchedule([FaultEvent("crash", 0.5, 5)])


def crash_run(minibatches, faults=CRASH, **sim):
    """The pipedream run of ``minibatches`` that ``faults`` interrupts."""
    return SimSpec(minibatches=minibatches, faults=faults, **sim)


OLD_STAGES = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)]
NEW_STAGES = [Stage(0, 2, 1), Stage(2, 3, 1)]


def make_trainer(model, stages):
    return PipelineTrainer(model, stages, LOSS, lambda ps: SGD(ps, lr=0.05))


def consolidated(trainer):
    return {name: p.data.copy()
            for name, p in trainer.consolidated_model().named_parameters()}


# ----------------------------------------------------------------------
# Topology shrinking
# ----------------------------------------------------------------------

class TestSurvivingWorkerCount:
    def test_one_crash_on_cluster_a(self):
        # 15 alive, but cluster A packs 4-per-server: 12 is the largest
        # packable sub-cluster.
        assert surviving_worker_count(TOPO_A, 1) == 12

    def test_four_crashes_pack_exactly(self):
        assert surviving_worker_count(TOPO_A, 4) == 12

    def test_no_crash_is_full_cluster(self):
        assert surviving_worker_count(TOPO_A, 0) == 16

    def test_all_dead_raises(self):
        with pytest.raises(ValueError):
            surviving_worker_count(TOPO_A, 16)


# ----------------------------------------------------------------------
# Warm re-planning
# ----------------------------------------------------------------------

class TestWarmReplan:
    def test_warm_replan_bitwise_equals_cold(self):
        context = SolverContext(VGG)
        warm = PipeDreamOptimizer(VGG, TOPO_A, context=context)
        warm.solve()  # healthy-cluster plan warms the tables
        for survivors in (12, 8, 4):
            warm_plan = warm.solve(survivors)
            cold_plan = PipeDreamOptimizer(VGG, TOPO_A).solve(survivors)
            assert warm_plan.stages == cold_plan.stages
            assert warm_plan.slowest_stage_time == cold_plan.slowest_stage_time
            assert warm_plan.config_string == cold_plan.config_string

    def test_coordinator_replan_matches_cold(self):
        coordinator = ElasticCoordinator(VGG, TOPO_A)
        coordinator.optimizer.solve()
        plan, seconds = coordinator.replan(12)
        cold = PipeDreamOptimizer(VGG, TOPO_A).solve(12)
        assert plan.stages == cold.stages
        assert seconds >= 0.0

    def test_replan_keeps_the_plan_spec(self):
        # allow_replication=False must reach the re-plan: without it the
        # plan replicates ([0,12)x3, [12,21)x1) where the spec asks for a
        # straight 4-stage pipeline.
        topology = cluster_a(2)
        spec = PlanSpec(allow_replication=False)
        plan, _ = ElasticCoordinator(VGG, topology, spec).replan(4)
        cold = PipeDreamOptimizer(VGG, topology, **spec.options()).solve(4)
        assert plan.stages == cold.stages
        assert len(plan.stages) == 4
        assert all(stage.replicas == 1 for stage in plan.stages)


# ----------------------------------------------------------------------
# The full cycle
# ----------------------------------------------------------------------

SIM_SIDE_FIELDS = (
    "fault_time", "detection_time", "detection_latency", "surviving_workers",
    "plan_config", "minibatches_completed", "minibatches_resumed",
    "oracle_seconds", "recovery_total_seconds", "minibatches_lost",
)


def sim_side(report):
    m = report.metrics
    return tuple(getattr(m, f) for f in SIM_SIDE_FIELDS) + (
        tuple(report.new_stages),)


class TestRunWithRecovery:
    @pytest.fixture(scope="class")
    def report(self):
        return ElasticCoordinator(VGG, TOPO_A).run_with_recovery(
            crash_run(32))

    def test_requires_a_crash(self):
        no_crash = FaultSchedule([
            FaultEvent("straggler", 0.1, 2, duration=0.2, factor=2.0)])
        for sim in (crash_run(8, no_crash), SimSpec(minibatches=8)):
            with pytest.raises(ValueError, match="no crash to recover"):
                ElasticCoordinator(VGG, TOPO_A).run_with_recovery(sim)

    def test_detection_follows_heartbeat(self, report):
        m = report.metrics
        assert m.fault_time == 0.5
        # First heartbeat boundary strictly after the crash.
        assert m.detection_time == pytest.approx(0.55)
        assert 0.0 < m.detection_latency <= 0.05 + 1e-12

    def test_recovery_accounting(self, report):
        m = report.metrics
        assert m.surviving_workers == 12
        assert m.minibatches_completed + m.minibatches_resumed >= 32
        assert m.minibatches_resumed >= 1  # last minibatch always re-runs
        assert m.minibatches_lost > 0.0
        assert report.resumed.num_workers == 12
        assert m.plan_config == report.resumed.config

    @pytest.mark.chaos
    def test_sim_side_fields_deterministic(self, report):
        """Fresh coordinators reproduce every simulated-time field,
        the recovery bill included; only ``replan_wall_seconds`` reads the
        host clock."""
        again = ElasticCoordinator(VGG, TOPO_A).run_with_recovery(
            crash_run(32))
        assert sim_side(again) == sim_side(report)

    def test_checkpoint_cadence_coarsens_resume(self, report):
        sparse = ElasticCoordinator(VGG, TOPO_A).run_with_recovery(
            crash_run(32), checkpoint_every=8)
        m, s = report.metrics, sparse.metrics
        assert s.minibatches_completed % 8 == 0
        assert s.minibatches_completed <= m.minibatches_completed
        assert s.minibatches_resumed >= m.minibatches_resumed

    def test_sweep_record_carries_recovery_columns(self, report):
        record = report.as_sweep_record("vgg16", "cluster_a")
        assert record.strategy == "elastic"
        assert record.workers == 12
        assert record.detection_latency == report.metrics.detection_latency
        assert record.minibatches_lost == report.metrics.minibatches_lost

    def test_data_parallel_plan_runs_under_bsp(self):
        """ResNet-50 plans "16" (Table 1): the fault-free oracle is the
        run every other surface reports for that plan, and the resumed
        12-worker run is the BSP one too, so it cannot out-run it."""
        profile, minibatches = analytic_profile("resnet50"), 32
        served = simulate_strategy(profile, TOPO_A,
                                   SimSpec(minibatches=minibatches), PlanSpec())
        assert served.config == "16"
        crash = FaultSchedule([FaultEvent(
            "crash", 0.5 * max(served.sim.minibatch_done.values()), 5)])
        report = ElasticCoordinator(profile, TOPO_A).run_with_recovery(
            crash_run(minibatches, crash))
        assert report.oracle.sim.records == served.sim.records
        assert report.oracle.samples_per_second == served.samples_per_second
        assert report.resumed.config == "12"
        assert report.resumed.sim.records == simulate_strategy(
            profile, TOPO_A.subset(12),
            SimSpec(minibatches=report.metrics.minibatches_resumed),
            PlanSpec()).sim.records
        assert (report.resumed.samples_per_second
                < report.oracle.samples_per_second)



# ----------------------------------------------------------------------
# The scenario: every run of the cycle reads PlanSpec x SimSpec
# ----------------------------------------------------------------------

CAP = 3e9
TOPO_A2 = cluster_a(2)


class TestScenario:
    @pytest.mark.parametrize("plan, sim", [
        (PlanSpec(memory_limit_bytes=CAP), crash_run(32)),
        (PlanSpec(), crash_run(32, schedule_family="2bp")),
    ], ids=["capped", "2bp"])
    def test_oracle_is_the_scenarios_fault_free_run(self, plan, sim):
        report = ElasticCoordinator(VGG, TOPO_A2, plan).run_with_recovery(
            sim)
        served = simulate_strategy(VGG, TOPO_A2, replace(sim, faults=None),
                                   plan)
        assert report.oracle == served
        assert report.oracle.sim.records == served.sim.records

    def test_recovery_plan_fits_the_cap(self):
        """The healthy 8-worker plan fits 3 GB; the 4 survivors' plan must
        too (without the cap it needs 7.34 GB per worker)."""
        report = ElasticCoordinator(
            VGG, TOPO_A2, PlanSpec(memory_limit_bytes=CAP)).run_with_recovery(
                crash_run(32))
        assert report.metrics.surviving_workers == 4
        for stages in (report.old_stages, report.new_stages):
            assert max(pipeline_memory_footprint(VGG, stages)) <= CAP
        assert max(report.resumed.memory_per_worker) <= CAP

    def test_schedule_family_reaches_every_run(self):
        report = ElasticCoordinator(VGG, TOPO_A2).run_with_recovery(
            crash_run(32, schedule_family="2bp"))
        for run in (report.oracle, report.faulted, report.resumed):
            assert any(r.op.kind is OpKind.BACKWARD_W
                       for r in run.sim.records)

    def test_replan_failure_names_the_survivors(self):
        """2.5 GB fits the healthy 8 workers but no plan on 4 survivors."""
        coordinator = ElasticCoordinator(
            VGG, TOPO_A2, PlanSpec(memory_limit_bytes=2.5e9))
        coordinator.optimizer.solve()  # the healthy plan fits
        with pytest.raises(RuntimeError, match=(
                r"re-plan on 4 surviving workers after the crash at t=0\.5 "
                r"failed: no feasible partition found")):
            coordinator.run_with_recovery(crash_run(32))

    @pytest.mark.parametrize("strategy", ["dp", "mp", "gpipe"])
    def test_other_strategies_are_refused(self, strategy):
        with pytest.raises(ValueError, match=(
                "crash recovery re-plans the pipedream strategy only, not "
                f"'{strategy}'")):
            ElasticCoordinator(VGG, TOPO_A2).run_with_recovery(
                crash_run(8, strategy=strategy))

    def test_check_scenario_runs_first(self):
        with pytest.raises(ValueError, match="memory_limit_bytes applies to "
                           "the pipedream strategy only"):
            ElasticCoordinator(
                VGG, TOPO_A2, PlanSpec(memory_limit_bytes=CAP)
            ).run_with_recovery(crash_run(8, strategy="dp"))


# ----------------------------------------------------------------------
# Checkpoint remapping across partitions
# ----------------------------------------------------------------------

class TestCheckpointRemap:
    def checkpointed_trainer(self, tmp_path, seed=21):
        task = make_task(seed)
        trainer = make_trainer(make_model(2, seed), OLD_STAGES)
        trainer.train_minibatches(task)
        manager = CheckpointManager(str(tmp_path / "old"))
        trainer.save_checkpoint(manager, epoch=0)
        return trainer, manager, task

    def test_remap_preserves_every_parameter(self, tmp_path):
        trainer, manager, _ = self.checkpointed_trainer(tmp_path)
        reference = consolidated(trainer)

        dst = CheckpointManager(str(tmp_path / "new"))
        assert remap_checkpoints(manager, OLD_STAGES, dst, NEW_STAGES) == 0

        resumed = make_trainer(make_model(2, seed=99), NEW_STAGES)
        assert resumed.restore_checkpoint(dst) == 0
        for name, p in resumed.consolidated_model().named_parameters():
            np.testing.assert_array_equal(p.data, reference[name],
                                          err_msg=name)

    def test_remap_refuses_same_directory(self, tmp_path):
        _, manager, _ = self.checkpointed_trainer(tmp_path)
        with pytest.raises(ValueError):
            remap_checkpoints(manager, OLD_STAGES, manager, NEW_STAGES)

    def test_remap_replicated_destination(self, tmp_path):
        trainer, manager, _ = self.checkpointed_trainer(tmp_path)
        reference = consolidated(trainer)
        replicated = [Stage(0, 2, 2), Stage(2, 3, 1)]
        dst = CheckpointManager(str(tmp_path / "new"))
        remap_checkpoints(manager, OLD_STAGES, dst, replicated)

        resumed = make_trainer(make_model(2, seed=77), replicated)
        assert resumed.restore_checkpoint(dst) == 0
        a, b = resumed.replicas[0]
        for (name, pa), (_, pb) in zip(a.module.named_parameters(),
                                       b.module.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)
        for name, p in resumed.consolidated_model().named_parameters():
            np.testing.assert_array_equal(p.data, reference[name],
                                          err_msg=name)

    def test_restore_remapped_direct(self, tmp_path):
        trainer, manager, _ = self.checkpointed_trainer(tmp_path)
        reference = consolidated(trainer)
        resumed = make_trainer(make_model(2, seed=99), NEW_STAGES)
        assert restore_remapped(resumed, manager, OLD_STAGES) == 0
        for name, p in resumed.consolidated_model().named_parameters():
            np.testing.assert_array_equal(p.data, reference[name],
                                          err_msg=name)

    def test_restore_remapped_none_when_empty(self, tmp_path):
        resumed = make_trainer(make_model(2, seed=99), NEW_STAGES)
        before = consolidated(resumed)
        empty = CheckpointManager(str(tmp_path / "empty"))
        assert restore_remapped(resumed, empty, OLD_STAGES) is None
        after = consolidated(resumed)  # weights untouched
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

    def test_resumed_training_matches_fresh_start(self, tmp_path):
        """Post-resume training through the remap path is bitwise-equal
        to a fresh trainer started on the surviving partition from the
        same weights — recovery adds no numerical drift."""
        trainer, manager, task = self.checkpointed_trainer(tmp_path)
        reference = consolidated(trainer)

        resumed = make_trainer(make_model(2, seed=99), NEW_STAGES)
        restore_remapped(resumed, manager, OLD_STAGES)
        resumed.train_minibatches(task)

        fresh_model = make_model(2, seed=55)
        for name, p in fresh_model.named_parameters():
            p.data = reference[name].copy()
        fresh = make_trainer(fresh_model, NEW_STAGES)
        fresh.train_minibatches(task)

        final = consolidated(fresh)
        for name, p in resumed.consolidated_model().named_parameters():
            np.testing.assert_array_equal(p.data, final[name], err_msg=name)

    def test_layer_state_round_trip(self, tmp_path):
        trainer, manager, _ = self.checkpointed_trainer(tmp_path)
        layers = consolidated_layer_states(manager, OLD_STAGES, epoch=0)
        assert len(layers) == 3
        states = stage_states_for(layers, NEW_STAGES)
        assert len(states) == 2
        # Stage 0 covers layers 0-1: keys re-based to "0.*"/"1.*".
        offsets = {key.partition(".")[0] for key in states[0]}
        assert offsets == {"0", "1"}
        assert {key.partition(".")[0] for key in states[1]} == {"0"}
