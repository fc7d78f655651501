"""Deployment plans and their JSON form (§4)."""

import pytest

from repro.core.deploy import DeploymentPlan, WorkerAssignment
from repro.core.partition import PipeDreamOptimizer
from repro.core.schedule import validate_schedule
from repro.core.topology import cluster_a
from repro.profiler import analytic_profile


@pytest.fixture
def plan(toy_profile, flat4):
    result = PipeDreamOptimizer(toy_profile, flat4).solve()
    return DeploymentPlan.from_partition(result)


class TestDeploymentPlan:
    def test_worker_assignments_cover_all_workers(self, plan):
        assert plan.num_workers == 4
        workers = [a.worker for a in plan.assignments]
        assert workers == list(range(4))

    def test_stage_of_layer_annotation(self, plan):
        """Every layer is annotated with exactly one stage id (§4)."""
        annotated = plan.annotated_layers()
        assert [a["layer"] for a in annotated] == plan.layer_names
        for a in annotated:
            stage = plan.stages[a["stage"]]
            assert stage.start <= a["index"] < stage.stop

    def test_stage_of_layer_out_of_range(self, plan):
        with pytest.raises(IndexError):
            plan.stage_of_layer(99)

    def test_workers_for_stage(self, plan):
        total = sum(len(plan.workers_for_stage(s)) for s in range(len(plan.stages)))
        assert total == 4

    def test_materialized_schedule_valid(self, plan):
        schedule = plan.schedule(12)
        validate_schedule(schedule)
        assert schedule.noam == plan.noam

    def test_json_roundtrip(self, plan):
        restored = DeploymentPlan.from_json(plan.to_json())
        assert restored.model_name == plan.model_name
        assert restored.stages == plan.stages
        assert restored.noam == plan.noam
        assert restored.assignments == plan.assignments

    def test_json_roundtrip_keeps_checkpointing(self):
        """A recompute decision survives the round trip; the key is
        written only on the stages that set it."""
        profile, topology = analytic_profile("gnmt16"), cluster_a(4)
        free = PipeDreamOptimizer(profile, topology).solve()
        result = PipeDreamOptimizer(
            profile, topology, recompute="auto",
            memory_limit_bytes=0.25 * max(free.memory_bytes)).solve()
        flags = [stage.recompute for stage in result.stages]
        assert flags[5] and flags.count(True) == 1
        plan = DeploymentPlan.from_partition(result)
        assert DeploymentPlan.from_json(plan.to_json()).stages == result.stages
        assert ["recompute" in s for s in plan.to_dict()["stages"]] == flags

    def test_describe_mentions_every_stage(self, plan):
        text = plan.describe()
        for s in range(len(plan.stages)):
            assert f"stage {s}:" in text
