"""Deployment plans and their JSON form (§4)."""

import json

import pytest

from repro.core.deploy import DeploymentPlan, _runs
from repro.core.partition import PartitionResult, PipeDreamOptimizer, Stage
from repro.core.schedule import validate_schedule, warmup_count
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
        """The written stages cover every layer exactly once, in order (§4)."""
        data = plan.to_dict()
        bounds = [(s["start"], s["stop"]) for s in data["stages"]]
        assert bounds[0][0] == 0 and bounds[-1][1] == len(data["layer_names"])
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert data["layer_names"] == plan.layer_names

    def test_workers_for_stage(self, plan):
        total = sum(len(plan.workers_for_stage(s)) for s in range(len(plan.stages)))
        assert total == 4

    def test_materialized_schedule_valid(self, plan):
        schedule = plan.schedule(12)
        validate_schedule(schedule)
        assert warmup_count(schedule.stages, 0) == plan.noam

    def test_json_roundtrip(self, toy_profile, flat4):
        """The JSON names each stage, each worker's role and its tp rank;
        the tp keys appear only on sharded workers."""
        stages = [Stage(0, 2, 1, tp_degree=2), Stage(2, 5, 2)]
        plan = DeploymentPlan.from_partition(
            PartitionResult(stages, 1.0, 4, toy_profile, flat4))
        data = json.loads(plan.to_json())
        assert (data["model_name"], data["noam"]) == ("toy", 2)
        assert data["stages"] == [
            {"start": 0, "stop": 2, "replicas": 1, "tp_degree": 2},
            {"start": 2, "stop": 5, "replicas": 2}]
        assert [(a["worker"], a["stage"], a["replica"], a.get("tp_rank"))
                for a in data["assignments"]] == [
            (0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 0, None), (3, 1, 1, None)]
        assert {a.get("tp_degree") for a in data["assignments"]} == {2, None}

    def test_json_roundtrip_keeps_checkpointing(self):
        """A recompute decision is written, and only on the stages that
        set it."""
        profile, topology = analytic_profile("gnmt16"), cluster_a(4)
        free = PipeDreamOptimizer(profile, topology).solve()
        result = PipeDreamOptimizer(
            profile, topology, recompute="auto",
            memory_limit_bytes=0.25 * max(free.memory_bytes)).solve()
        flags = [stage.recompute for stage in result.stages]
        assert flags[5] and flags.count(True) == 1
        plan = DeploymentPlan.from_partition(result)
        written = json.loads(plan.to_json())["stages"]
        assert [s.get("recompute", False) for s in written] == flags

    def test_describe_mentions_every_stage(self, plan):
        text = plan.describe()
        for s in range(len(plan.stages)):
            assert f"stage {s}:" in text

    def test_describe_prints_worker_runs(self):
        """A 63-way stage prints as one run, not 63 ids."""
        result = PipeDreamOptimizer(
            analytic_profile("vgg16"), cluster_a(16)).solve()
        text = DeploymentPlan.from_partition(result).describe()
        assert "on workers [0-62]" in text and "on workers [63]" in text
        assert _runs([0, 1, 2, 5, 7, 8]) == "[0-2, 5, 7-8]"
