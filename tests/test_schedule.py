"""1F1B / 1F1B-RR / GPipe / MP / DP schedule generation and validation."""

import math

import pytest

from repro.core.partition import Stage
from repro.core.schedule import (
    Op,
    OpKind,
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    one_f_one_b_schedule,
    replica_minibatches,
    validate_schedule,
    warmup_count,
)
from tests.oracles.schedule_reference import schedule_from_ops


def op_pattern(schedule, worker, limit=None):
    ops = [o for o in schedule.worker_ops[worker] if o.kind != OpKind.UPDATE]
    if limit:
        ops = ops[:limit]
    return "".join(o.kind.value for o in ops)


class TestOneFOneB:
    def test_figure4_warmup_depths(self):
        """Stage s performs num_stages - s warmup forwards (Figure 4)."""
        sched = one_f_one_b_schedule(4, 12)
        for s in range(4):
            pattern = op_pattern(sched, s)
            warmup = len(pattern) - len(pattern.lstrip("F"))
            assert warmup == 4 - s

    def test_steady_state_alternates(self):
        sched = one_f_one_b_schedule(4, 12)
        for s in range(4):
            pattern = op_pattern(sched, s)
            steady = pattern[4 - s : -(4 - s)] if s < 4 else pattern
            # After warmup, strict BF alternation until the drain.
            assert "FF" not in steady
            assert "BBB" not in steady

    def test_last_stage_immediately_alternates(self):
        sched = one_f_one_b_schedule(4, 6)
        assert op_pattern(sched, 3, limit=6) == "FBFBFB"

    def test_all_ops_present(self):
        sched = one_f_one_b_schedule(3, 5)
        validate_schedule(sched)

    def test_updates_follow_backwards(self):
        sched = one_f_one_b_schedule(2, 4)
        for worker, ops in sched.worker_ops.items():
            for i, op in enumerate(ops):
                if op.kind == OpKind.UPDATE:
                    prev = ops[i - 1]
                    assert prev.kind == OpKind.BACKWARD
                    assert prev.minibatch == op.minibatch

    def test_noam_equals_num_stages(self):
        sched = one_f_one_b_schedule(4, 8)
        assert warmup_count(sched.stages, 0) == 4
        assert op_pattern(sched, 0, 5) == "FFFFB"

    def test_fewer_minibatches_than_stages(self):
        sched = one_f_one_b_schedule(4, 2)
        validate_schedule(sched)

    def test_single_stage(self):
        sched = one_f_one_b_schedule(1, 3)
        validate_schedule(sched)
        assert op_pattern(sched, 0) == "FBFBFB"


class TestWarmupCount:
    def test_straight(self):
        stages = [Stage(i, i + 1, 1) for i in range(4)]
        assert [warmup_count(stages, s) for s in range(4)] == [4, 3, 2, 1]

    def test_replicated_input(self):
        stages = [Stage(0, 1, 3), Stage(1, 2, 1)]
        assert warmup_count(stages, 0) == 2  # ceil(4/3)
        assert warmup_count(stages, 1) == 1

    def test_equals_noam_at_input(self):
        for config in [(1, 1, 1), (2, 1), (3, 1), (2, 2), (4, 2, 1)]:
            stages = [Stage(i, i + 1, r) for i, r in enumerate(config)]
            assert warmup_count(stages, 0) == math.ceil(sum(config) / config[0])


class TestOneTable:
    def test_worker_ops_is_a_read_only_view(self):
        sched = one_f_one_b_schedule(2, 3)
        with pytest.raises(TypeError):
            sched.worker_ops[1] = ()
        assert sched.worker_ops[1] == sched.table.ops(1)

    @pytest.mark.parametrize("stages", [
        [Stage(0, 1, 2), Stage(1, 2, 1)],
        [Stage(i, i + 1, 1) for i in range(4)],
        [Stage(0, 1, 1, tp_degree=2), Stage(1, 2, 3)],
    ])
    def test_noam_keyword_is_checked(self, stages):
        derived = warmup_count(stages, 0)
        assert (one_f_one_b_rr_schedule(stages, 9, noam=derived).table
                == one_f_one_b_rr_schedule(stages, 9).table)
        for noam in (derived - 1, derived + 1, 2 * derived + 3):
            with pytest.raises(ValueError, match="in_flight_per_replica"):
                one_f_one_b_rr_schedule(stages, 9, noam=noam)


class TestOneFOneBRR:
    def test_round_robin_routing(self):
        stages = [Stage(0, 1, 2), Stage(1, 2, 1)]
        sched = one_f_one_b_rr_schedule(stages, 8)
        for b in range(8):
            assert sched.replica_for(0, b) == b % 2

    def test_replica_minibatches(self):
        stage = Stage(0, 1, 3)
        assert replica_minibatches(stage, 0, 10) == [0, 3, 6, 9]
        assert replica_minibatches(stage, 2, 10) == [2, 5, 8]

    def test_figure8_config(self):
        """2-1 config: workers 0/1 split even/odd, worker 2 takes all."""
        stages = [Stage(0, 1, 2), Stage(1, 2, 1)]
        sched = one_f_one_b_rr_schedule(stages, 6)
        validate_schedule(sched)
        w0 = [o.minibatch for o in sched.worker_ops[0] if o.kind == OpKind.FORWARD]
        w1 = [o.minibatch for o in sched.worker_ops[1] if o.kind == OpKind.FORWARD]
        w2 = [o.minibatch for o in sched.worker_ops[2] if o.kind == OpKind.FORWARD]
        assert w0 == [0, 2, 4]
        assert w1 == [1, 3, 5]
        assert w2 == [0, 1, 2, 3, 4, 5]

    def test_matches_closed_form_for_straight(self):
        stages = [Stage(i, i + 1, 1) for i in range(4)]
        rr = one_f_one_b_rr_schedule(stages, 10)
        cf = one_f_one_b_schedule(4, 10)
        for w in range(4):
            assert rr.worker_ops[w] == cf.worker_ops[w]

    @pytest.mark.parametrize("config", [
        (1, 3), (3, 1), (2, 2), (2, 1, 1), (1, 2, 1), (4, 2, 1), (1, 1, 2), (5,),
    ])
    def test_arbitrary_configs_validate(self, config):
        stages = [Stage(i, i + 1, r) for i, r in enumerate(config)]
        sched = one_f_one_b_rr_schedule(stages, 13)
        validate_schedule(sched)

    def test_same_replica_forward_and_backward(self):
        stages = [Stage(0, 1, 3), Stage(1, 2, 2)]
        sched = one_f_one_b_rr_schedule(stages, 12)
        validate_schedule(sched)  # includes the replica-consistency check


class TestGPipe:
    def test_flush_boundaries(self):
        sched = gpipe_schedule(3, num_batches=2, num_microbatches=4)
        # Every stage flushes with one UPDATE after each batch's last
        # microbatch.
        for ops in sched.worker_ops.values():
            assert [o.minibatch for o in ops
                    if o.kind == OpKind.UPDATE] == [3, 7]
        validate_schedule(sched)

    def test_forwards_before_backwards_within_batch(self):
        sched = gpipe_schedule(2, 1, 4)
        ops = [o for o in sched.worker_ops[0] if o.kind != OpKind.UPDATE]
        kinds = "".join(o.kind.value for o in ops)
        assert kinds == "FFFFBBBB"

    def test_backwards_reverse_order(self):
        sched = gpipe_schedule(2, 1, 3)
        backs = [o.minibatch for o in sched.worker_ops[1] if o.kind == OpKind.BACKWARD]
        assert backs == [2, 1, 0]

    def test_one_update_per_batch(self):
        sched = gpipe_schedule(2, 3, 4)
        updates = [o for o in sched.worker_ops[0] if o.kind == OpKind.UPDATE]
        assert len(updates) == 3

    def test_noam_is_microbatch_count(self):
        assert op_pattern(gpipe_schedule(2, 1, 5), 0, 6) == "FFFFFB"


class TestBaselines:
    def test_model_parallel_one_in_flight(self):
        sched = model_parallel_schedule(3, 4)
        validate_schedule(sched)
        # Worker 0's ops: F(b) ... B(b) before F(b+1).
        ops = [o for o in sched.worker_ops[0] if o.kind != OpKind.UPDATE]
        kinds = "".join(o.kind.value for o in ops)
        assert kinds == "FB" * 4

    def test_data_parallel_every_worker_every_minibatch(self):
        sched = data_parallel_schedule(3, 4)
        for w in range(3):
            fwds = [o.minibatch for o in sched.worker_ops[w] if o.kind == OpKind.FORWARD]
            assert fwds == [0, 1, 2, 3]

    def test_data_parallel_stage_shape(self):
        sched = data_parallel_schedule(4, 2, num_layers=7)
        assert sched.stages[0].replicas == 4
        assert sched.stages[0].stop == 7


class TestValidation:
    def test_detects_missing_backward(self):
        full = one_f_one_b_schedule(2, 3)
        ops = dict(full.worker_ops)
        ops[1] = [o for o in ops[1] if not (
            o.kind == OpKind.BACKWARD and o.minibatch == 2)]
        sched = schedule_from_ops(full.stages, 3, ops)
        with pytest.raises(ValueError):
            validate_schedule(sched)

    def test_detects_backward_before_forward(self):
        stages = [Stage(0, 1, 1)]
        sched = schedule_from_ops(
            stages, 1,
            {0: [Op(OpKind.BACKWARD, 0, 0), Op(OpKind.FORWARD, 0, 0)]},
            stage_workers={0: [0]},
        )
        with pytest.raises(ValueError):
            validate_schedule(sched)

    def test_detects_replica_mismatch(self):
        stages = [Stage(0, 1, 2)]
        sched = schedule_from_ops(
            stages, 1,
            {
                0: [Op(OpKind.FORWARD, 0, 0)],
                1: [Op(OpKind.BACKWARD, 0, 0)],
            },
            stage_workers={0: [0, 1]},
        )
        with pytest.raises(ValueError):
            validate_schedule(sched)

    def test_detects_deadlock(self):
        # Structurally valid, but the op orders wait on each other: stage 0
        # wants B0 back before sending F1; stage 1 wants F1 before B0.
        stages = [Stage(0, 1, 1), Stage(1, 2, 1)]
        sched = schedule_from_ops(
            stages, 2,
            {
                0: [Op(OpKind.FORWARD, 0, 0), Op(OpKind.BACKWARD, 0, 0),
                    Op(OpKind.FORWARD, 0, 1), Op(OpKind.BACKWARD, 0, 1)],
                1: [Op(OpKind.FORWARD, 1, 0), Op(OpKind.FORWARD, 1, 1),
                    Op(OpKind.BACKWARD, 1, 0), Op(OpKind.BACKWARD, 1, 1)],
            },
            stage_workers={0: [0], 1: [1]},
        )
        with pytest.raises(ValueError,
                           match=r"deadlocks; blocked ops: .*B0@s0.*F1@s1"):
            validate_schedule(sched)
