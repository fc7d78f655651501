"""The threaded (one OS thread per worker) pipeline runtime."""

import threading

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.data import make_classification_data
from repro.models import build_mlp
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.runtime import GradScaler, PipelineTrainer, ThreadedPipelineTrainer
from repro.runtime.threaded import MessageBoard
from tests.test_runtime_golden import (
    CELLS,
    STRAIGHT_PLANS,
    cell_id,
    outcome,
    train,
)

LOSS = CrossEntropyLoss()
STRAIGHT = [Stage(0, 1, 1), Stage(1, 2, 1), Stage(2, 3, 1)]


@pytest.fixture
def task():
    X, y = make_classification_data(num_samples=96, seed=3)
    return [(X[i * 12 : (i + 1) * 12], y[i * 12 : (i + 1) * 12]) for i in range(8)]


def fresh_model(seed=7):
    return build_mlp(rng=np.random.default_rng(seed))


def assert_same_weights(a, b):
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)


class TestMessageBoard:
    def test_put_then_get(self):
        board = MessageBoard()
        board.send(0, 1, ("x",), np.arange(3))
        np.testing.assert_array_equal(board.recv(0, 1, ("x",)), np.arange(3))
        assert board.total_bytes == np.arange(3).nbytes
        assert board.bytes_by_channel() == {(0, 1): np.arange(3).nbytes}
        assert board.in_flight() == 0

    def test_get_blocks_until_put(self):
        board = MessageBoard()
        board.timeout = 5.0
        result = []

        def consumer():
            result.append(board.recv(2, 3, ("late",)))

        thread = threading.Thread(target=consumer)
        thread.start()
        board.send(2, 3, ("late",), "hello")
        thread.join(timeout=5.0)
        assert result == ["hello"]

    def test_timeout(self):
        board = MessageBoard()
        board.timeout = 0.05
        board.send(0, 1, ("other",), 1)  # wrong tag: still waits
        with pytest.raises(TimeoutError):
            board.recv(0, 1, ("never",))

    def test_fail_wakes_waiters(self):
        board = MessageBoard()
        board.timeout = 5.0
        outcome = []

        def consumer():
            try:
                board.recv(0, 1, ("anything",))
            except RuntimeError as error:
                outcome.append(error)

        thread = threading.Thread(target=consumer)
        thread.start()
        board.fail(ValueError("boom"))
        thread.join(timeout=5.0)
        assert len(outcome) == 1
        assert isinstance(outcome[0].__cause__, ValueError)
        with pytest.raises(RuntimeError):  # and every later waiter
            board.recv(0, 1, ("anything",))


class TestThreadedTrainer:
    def test_bitwise_equal_to_logical_for_straight(self, task):
        m_logical, m_threaded = fresh_model(), fresh_model()
        logical = PipelineTrainer(m_logical, STRAIGHT, LOSS,
                                  lambda ps: SGD(ps, lr=0.05))
        threaded = ThreadedPipelineTrainer(m_threaded, STRAIGHT, LOSS,
                                           lambda ps: SGD(ps, lr=0.05))
        l1 = logical.train_minibatches(task)
        l2 = threaded.train_minibatches(task)
        assert l1 == pytest.approx(l2)
        assert_same_weights(logical.consolidated_model(),
                            threaded.consolidated_model())

    def test_staleness_formula_holds_concurrently(self, task):
        threaded = ThreadedPipelineTrainer(fresh_model(), STRAIGHT, LOSS,
                                           lambda ps: SGD(ps, lr=0.05))
        threaded.train_minibatches(task)
        n = 3
        for b in range(len(task)):
            for s in range(n):
                expected = max(0, b - (n - 1 - s))
                assert threaded.stats.forward_versions[(s, b)] == expected

    def test_multiple_epochs(self, task):
        trainer = ThreadedPipelineTrainer(fresh_model(), STRAIGHT, LOSS,
                                          lambda ps: SGD(ps, lr=0.1))
        losses = [trainer.train_minibatches(task) for _ in range(4)]
        assert losses[-1] < losses[0]

    def test_replicated_stage_trains_and_stays_consistent(self, task):
        for stages in ([Stage(0, 2, 2), Stage(2, 3, 1)],
                       [Stage(0, 1, 2), Stage(1, 2, 2), Stage(2, 3, 1)]):
            trainer = ThreadedPipelineTrainer(fresh_model(), stages, LOSS,
                                              lambda ps: SGD(ps, lr=0.05))
            losses = [trainer.train_minibatches(task) for _ in range(3)]
            assert losses[-1] < losses[0], stages
            for first, *others in trainer.replicas.values():
                for other in others:
                    assert_same_weights(first.module, other.module)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "cell", [c for c in CELLS if c[0] in STRAIGHT_PLANS], ids=cell_id)
    def test_bitwise_equal_to_logical_on_straight_cells(self, cell):
        """Losses, weights, versions, peak memory and live-version stats,
        loss scale, skips and traffic, over every straight cell of the
        golden runtime matrix (the golden digests pin the stats non-empty)."""
        assert (outcome(train(ThreadedPipelineTrainer, cell))
                == outcome(train(PipelineTrainer, cell)))

    def test_stress_shared_round_state(self, task):
        """Six worker threads on two replicated stages with a tiny switch
        interval: a lost update to the shared round state would wedge a
        round, skew a replica or change the commit count."""
        import sys

        stages = [Stage(0, 1, 3), Stage(1, 2, 2), Stage(2, 3, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for family in ("1f1b", "2bp"):
                trainers = [cls(fresh_model(), stages, LOSS,
                                lambda ps: SGD(ps, lr=0.05),
                                gradient_accumulation=2, **kwargs)
                            for cls, kwargs in (
                                (PipelineTrainer, {}),
                                (ThreadedPipelineTrainer,
                                 {"worker_timeout": 10.0}))]
                for trainer in trainers:
                    for _ in range(4):
                        trainer.train_minibatches(task, schedule_family=family)
                logical, threaded = trainers
                assert threaded.stage_versions() == logical.stage_versions()
                assert (threaded.network.total_bytes
                        == logical.network.total_bytes)
                assert threaded.network.in_flight() == 0
                for first, *others in threaded.replicas.values():
                    for other in others:
                        assert_same_weights(first.module, other.module)
        finally:
            sys.setswitchinterval(interval)

    # The oversized scale overflows, and inf crosses stage boundaries.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stress_fp16_round_members_keep_their_scale(self, task):
        """fp16 on two-replica stages with a tiny switch interval and an
        oversized initial loss scale, which backs off between the two
        minibatches of an update round: each member must be unscaled by its
        own minibatch's scale.  Two-member sums are order-free, so the
        threaded run is deterministic: it repeats itself bitwise, and its
        scale history, skips and traffic equal the logical trainer's."""
        import sys

        stages = [Stage(0, 1, 2), Stage(1, 2, 2), Stage(2, 3, 1)]

        def run(trainer_cls, family, **kwargs):
            trainer = trainer_cls(
                fresh_model(), stages, LOSS, lambda ps: SGD(ps, lr=0.05),
                precision="fp16", **kwargs,
                grad_scaler=GradScaler(init_scale=2.0 ** 24, growth_interval=3))
            for _ in range(3):
                trainer.train_minibatches(task, schedule_family=family)
            return trainer

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for family in ("1f1b", "2bp"):
                logical = run(PipelineTrainer, family)
                assert sum(logical.stats.skipped_updates.values()) > 0
                threaded = [run(ThreadedPipelineTrainer, family,
                                worker_timeout=10.0) for _ in range(3)]
                for trainer in threaded:
                    for first, *others in trainer.replicas.values():
                        for other in others:
                            assert_same_weights(first.module, other.module)
                first, *others = [outcome(trainer) for trainer in threaded]
                assert all(other == first for other in others), family
                expected = outcome(logical)
                for key in ("loss_scale", "skipped_updates", "bytes_by_channel"):
                    assert first[key] == expected[key], (family, key)
        finally:
            sys.setswitchinterval(interval)

    def test_gradient_accumulation_matches_logical(self, task):
        m_logical, m_threaded = fresh_model(), fresh_model()
        logical = PipelineTrainer(m_logical, [Stage(0, 3, 1)], LOSS,
                                  lambda ps: SGD(ps, lr=0.05),
                                  gradient_accumulation=2)
        threaded = ThreadedPipelineTrainer(m_threaded, [Stage(0, 3, 1)], LOSS,
                                           lambda ps: SGD(ps, lr=0.05),
                                           gradient_accumulation=2)
        logical.train_minibatches(task)
        threaded.train_minibatches(task)
        assert_same_weights(logical.consolidated_model(),
                            threaded.consolidated_model())

    def test_vertical_sync_policy(self, task):
        trainer = ThreadedPipelineTrainer(fresh_model(), STRAIGHT, LOSS,
                                          lambda ps: SGD(ps, lr=0.05),
                                          policy="vertical_sync")
        trainer.train_minibatches(task)
        for b in range(2, len(task)):
            versions = {trainer.stats.forward_versions[(s, b)] for s in range(3)}
            assert len(versions) == 1  # all stages pin the same version

    def test_worker_failure_propagates(self, task):
        trainer = ThreadedPipelineTrainer(fresh_model(), STRAIGHT, LOSS,
                                          lambda ps: SGD(ps, lr=0.05),
                                          worker_timeout=5.0)
        # Poison one batch so the last stage's loss computation fails.
        bad = list(task)
        bad[3] = (bad[3][0], np.full_like(bad[3][1], 99))  # out-of-range class
        with pytest.raises(RuntimeError):
            trainer.train_minibatches(bad)

    def test_trainer_reusable_after_worker_failure(self, task):
        """A failed run's queued activations are dropped, not delivered to
        the next run under the same tags; the traffic counters keep
        counting."""
        trainer = ThreadedPipelineTrainer(fresh_model(), STRAIGHT, LOSS,
                                          lambda ps: SGD(ps, lr=0.05),
                                          worker_timeout=5.0)
        bad = list(task)
        # Minibatch 0's loss fails before any stage commits, after stage 0
        # has sent its whole warmup, so act (0, 2) is never received.
        bad[0] = (bad[0][0], np.full_like(bad[0][1], 99))
        with pytest.raises(RuntimeError):
            trainer.train_minibatches(bad)
        assert trainer.network.in_flight() > 0
        failed_bytes = trainer.network.total_bytes
        logical = PipelineTrainer(fresh_model(), STRAIGHT, LOSS,
                                  lambda ps: SGD(ps, lr=0.05))
        assert trainer.train_minibatches(task) == logical.train_minibatches(task)
        assert_same_weights(trainer.consolidated_model(),
                            logical.consolidated_model())
        assert trainer.network.in_flight() == 0
        assert (trainer.network.total_bytes
                == failed_bytes + logical.network.total_bytes)

    def test_worker_failure_wakes_round_waiters(self, task):
        """A replica parked at its UPDATE, waiting for a round that will
        never complete, is woken by the failure rather than its timeout."""
        import time

        def slow_failing_loss(logits, target):
            if (target == 99).any():
                # Give replica 0 of stage 0 time to park at the UPDATE of
                # round {2, 3}, which minibatch 3 now never completes.
                time.sleep(0.3)
                raise ValueError("poisoned minibatch")
            return LOSS(logits, target)

        trainer = ThreadedPipelineTrainer(
            fresh_model(), [Stage(0, 2, 2), Stage(2, 3, 1)],
            slow_failing_loss, lambda ps: SGD(ps, lr=0.05), worker_timeout=5.0)
        bad = list(task)
        bad[3] = (bad[3][0], np.full_like(bad[3][1], 99))
        begin = time.perf_counter()
        with pytest.raises(RuntimeError):
            trainer.train_minibatches(bad)
        assert time.perf_counter() - begin < 5.0
