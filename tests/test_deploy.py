"""Deployment plans and schedule serialization (§4)."""

import json

import pytest

from repro.core.deploy import (
    DeploymentPlan,
    WorkerAssignment,
    deserialize_schedule,
    serialize_schedule,
)
from repro.core.partition import PipeDreamOptimizer, Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    one_f_one_b_rr_schedule,
    schedule_for_family,
    validate_schedule,
)
from repro.core.topology import cluster_a, make_cluster
from repro.profiler import analytic_profile
from repro.sim.executor import simulate


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


class TestScheduleSerialization:
    def test_roundtrip_preserves_ops(self, plan):
        schedule = plan.schedule(9)
        restored = deserialize_schedule(serialize_schedule(schedule))
        assert restored.worker_ops == schedule.worker_ops
        assert restored.stages == schedule.stages
        assert restored.num_minibatches == schedule.num_minibatches
        validate_schedule(restored)

    def test_roundtrip_gpipe_flushes(self):
        from repro.core.schedule import gpipe_schedule

        schedule = gpipe_schedule(3, 2, 4)
        restored = deserialize_schedule(serialize_schedule(schedule))
        assert restored.flush_after == schedule.flush_after


class TestScheduleSerializationAxes:
    """tp degree, recompute and the 2BP split survive a round trip."""

    PROFILE = ModelProfile("six", [LayerProfile(f"l{i}", 1.0 + i, 400, 300,
                                                kind="fc")
                                   for i in range(6)], batch_size=4)
    TOPO = make_cluster("t8", 8, 1, 100.0, 100.0)

    @pytest.mark.parametrize("stages,family", [
        ([Stage(0, 3, 2, tp_degree=2), Stage(3, 6, 1)], "1f1b"),
        ([Stage(0, 2, 1, recompute=True), Stage(2, 6, 2)], "1f1b"),
        ([Stage(0, 3, 2), Stage(3, 6, 1, tp_degree=2)], "2bp"),
    ], ids=["tp", "recompute", "2bp"])
    def test_roundtrip_equals_original(self, stages, family):
        schedule = schedule_for_family(one_f_one_b_rr_schedule(stages, 7),
                                       family)
        payload = serialize_schedule(schedule)
        restored = deserialize_schedule(json.loads(json.dumps(payload)))
        assert restored.stages == schedule.stages
        assert restored.stage_workers == schedule.stage_workers
        assert restored.num_workers == schedule.num_workers
        assert restored.backward_split == schedule.backward_split
        assert restored.worker_ops == schedule.worker_ops
        validate_schedule(restored)
        got = simulate(restored, self.PROFILE, self.TOPO)
        want = simulate(schedule, self.PROFILE, self.TOPO)
        assert got.records == want.records
        assert got.total_time == want.total_time

    def test_old_payload_loads_with_defaults(self):
        payload = serialize_schedule(one_f_one_b_rr_schedule(
            [Stage(0, 3, 2), Stage(3, 6, 1)], 4))
        assert "backward_split" not in payload
        assert all(set(s) == {"start", "stop", "replicas"}
                   for s in payload["stages"])
        restored = deserialize_schedule(payload)
        assert restored.backward_split is False
        assert restored.stage_workers == {0: [0, 1], 1: [2]}
