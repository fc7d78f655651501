"""AMP layer: GradScaler state machine, fp16 emulation, pipelined AMP.

The lockdown contract has two halves:

* **fp32 is untouched** — ``PipelineTrainer(precision="fp32")``, on one
  stage or several, produces weight trajectories bitwise-identical to the
  precision-less reference paths.
* **fp16 obeys the scaler recipe** — masters stay full precision, stashed
  versions and wire payloads are real ``np.float16``, overflowing rounds
  are skipped with a scale backoff, stable runs grow the scale, and the
  fp16+scaler run still converges to the fp32 loss on a small model.
"""

import numpy as np
import pytest

from repro.core.partition import Stage
from repro.data.synthetic import make_classification_data
from repro.models.mlp import build_mlp
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from repro.runtime import (
    CheckpointManager,
    GradScaler,
    PipelineTrainer,
    ThreadedPipelineTrainer,
    fit,
)
from repro.runtime.amp import (
    cast_payload_fp16,
    payload_has_overflow,
    quantize_fp16,
    upcast_payload,
)
from tests.oracles.sgd_reference import SequentialTrainer


def _mlp(seed=0):
    return build_mlp(in_features=16, hidden=(32, 32), num_classes=4,
                     rng=np.random.default_rng(seed))


def _batches(n=128, batch=32, seed=1):
    X, y = make_classification_data(n, 16, 4, seed=seed)
    return [(X[i:i + batch], y[i:i + batch]) for i in range(0, n, batch)]


LOSS = CrossEntropyLoss()


# ----------------------------------------------------------------------
# Quantization helpers
# ----------------------------------------------------------------------

class TestQuantize:
    def test_fp16_representable_values_round_trip_exactly(self):
        exact = np.array([0.0, 1.0, -2.5, 0.125, 2.0 ** -14, 65504.0])
        assert (quantize_fp16(exact) == exact).all()
        assert quantize_fp16(exact).dtype == exact.dtype  # stays float64

    def test_rounds_to_nearest_fp16(self):
        x = np.array([1.0 + 2.0 ** -12])  # below fp16 resolution at 1.0
        assert quantize_fp16(x) == np.array([1.0])

    def test_overflow_becomes_inf(self):
        assert np.isinf(quantize_fp16(np.array([1e6, -1e6]))).all()

    def test_integer_arrays_pass_through(self):
        ids = np.array([1, 2, 3], dtype=np.int64)
        assert quantize_fp16(ids) is ids
        assert cast_payload_fp16(ids) is ids

    def test_cast_and_upcast_round_trip(self):
        x = np.array([0.5, -1.25, 3.0])
        wire = cast_payload_fp16(x)
        assert wire.dtype == np.float16
        back = upcast_payload(wire)
        assert back.dtype == np.float64
        assert (back == x).all()

    def test_tuple_payloads(self):
        payload = (np.array([1.0]), np.array([7], dtype=np.int32), None)
        wire = cast_payload_fp16(payload)
        assert wire[0].dtype == np.float16
        assert wire[1].dtype == np.int32
        assert wire[2] is None
        back = upcast_payload(wire)
        assert back[0].dtype == np.float64

    def test_payload_has_overflow(self):
        assert payload_has_overflow([np.array([np.inf])])
        assert payload_has_overflow({"w": np.array([np.nan])})
        assert not payload_has_overflow([np.array([1.0]), None])


# ----------------------------------------------------------------------
# GradScaler state machine
# ----------------------------------------------------------------------

class TestGradScaler:
    def test_static_scale_round_trip(self):
        scaler = GradScaler(init_scale=2.0 ** 8, dynamic=False)
        grads = [np.array([1.0, -0.5]), None]
        scaled = [None if g is None else g * scaler.scale for g in grads]
        back = scaler.unscale(scaled)
        # Powers of two scale/unscale exactly in binary floating point.
        assert (back[0] == grads[0]).all()
        assert back[1] is None
        for _ in range(500):
            scaler.update(False)
        scaler.update(True)
        assert scaler.scale == 2.0 ** 8  # static: never moves
        assert scaler.num_skipped == 1

    def test_dynamic_growth_after_n_stable_steps(self):
        scaler = GradScaler(init_scale=4.0, growth_interval=3)
        for _ in range(2):
            scaler.update(False)
        assert scaler.scale == 4.0  # not yet
        scaler.update(False)
        assert scaler.scale == 8.0  # third stable step doubles
        assert scaler.num_growths == 1
        for _ in range(3):
            scaler.update(False)
        assert scaler.scale == 16.0

    def test_skip_shrinks_and_resets_tracker(self):
        scaler = GradScaler(init_scale=16.0, growth_interval=3)
        scaler.update(False)
        scaler.update(False)
        scaler.update(True)  # overflow: shrink, reset the stable run
        assert scaler.scale == 8.0
        assert scaler.num_skipped == 1
        scaler.update(False)
        scaler.update(False)
        assert scaler.scale == 8.0  # the pre-overflow run doesn't count
        scaler.update(False)
        assert scaler.scale == 16.0

    def test_scale_floor_and_cap(self):
        scaler = GradScaler(init_scale=2.0, min_scale=1.0, max_scale=4.0,
                            growth_interval=1)
        for _ in range(10):
            scaler.update(True)
        assert scaler.scale == 1.0  # floored
        for _ in range(10):
            scaler.update(False)
        assert scaler.scale == 4.0  # capped
        assert scaler.num_growths == 2  # 1 -> 2 -> 4, then pinned

    def test_step_skips_on_injected_inf(self):
        model = _mlp()
        opt = SGD(model.parameters(), lr=0.1)
        before = [p.data.copy() for p in model.parameters()]
        scaler = GradScaler(init_scale=8.0)
        grads = [np.full_like(p.data, np.inf) for p in model.parameters()]
        assert scaler.step(opt, grads) is False
        assert scaler.scale == 4.0
        assert all((p.data == b).all()
                   for p, b in zip(model.parameters(), before))

    def test_step_applies_unscaled_gradient(self):
        model = _mlp()
        opt = SGD(model.parameters(), lr=1.0)
        before = [p.data.copy() for p in model.parameters()]
        scaler = GradScaler(init_scale=4.0, dynamic=False)
        grads = [np.ones_like(p.data) * 4.0 for p in model.parameters()]
        assert scaler.step(opt, grads) is True
        # lr=1, unscaled grad=1 -> every weight decremented by exactly 1.
        assert all((p.data == b - 1.0).all()
                   for p, b in zip(model.parameters(), before))

    def test_state_dict_round_trip(self):
        scaler = GradScaler(init_scale=32.0, growth_interval=5)
        scaler.update(False)
        scaler.update(True)
        state = scaler.state_dict()
        other = GradScaler()
        other.load_state_dict(state)
        assert other.scale == scaler.scale
        assert other.num_skipped == scaler.num_skipped
        assert other.state_dict() == state

    def test_validation(self):
        with pytest.raises(ValueError):
            GradScaler(init_scale=0.0)
        with pytest.raises(ValueError):
            GradScaler(growth_factor=1.0)
        with pytest.raises(ValueError):
            GradScaler(backoff_factor=1.5)
        with pytest.raises(ValueError):
            GradScaler(growth_interval=0)


# ----------------------------------------------------------------------
# Pipelined AMP
# ----------------------------------------------------------------------

def _stages(model):
    return [Stage(0, 2, 1), Stage(2, model.num_layers, 1)]


def _one_stage(model, **kwargs):
    """Sequential mixed-precision training: one stage of one replica."""
    return PipelineTrainer(model, [Stage(0, model.num_layers, 1)], LOSS,
                           lambda ps: SGD(ps, lr=0.1), **kwargs)


def _masters(trainer):
    replica = trainer.replicas[0][0]
    return [replica.master[name] for name in replica.param_names]


class TestPipelineAmp:
    def test_one_stage_fp32_bitwise_matches_sequential(self):
        batches = _batches()
        m_ref, m_amp = _mlp(), _mlp()
        ref = SequentialTrainer(m_ref, LOSS, SGD(m_ref.parameters(), lr=0.1))
        amp = _one_stage(m_amp, precision="fp32")
        assert amp.grad_scaler is None
        for _ in range(3):
            assert ref.train_epoch(batches) == amp.train_epoch(batches)
        assert all(
            (a.data == b.data).all()
            for a, b in zip(m_ref.parameters(),
                            amp.replicas[0][0].module.parameters())
        )

    def test_one_stage_fp16_converges_to_fp32_loss(self):
        """The headline convergence check: fp16 + dynamic scaling lands
        within tolerance of the fp32 final loss on a seeded small model."""
        batches = _batches()
        m32, m16 = _mlp(), _mlp()
        t32 = SequentialTrainer(m32, LOSS, SGD(m32.parameters(), lr=0.1))
        t16 = _one_stage(
            m16, precision="fp16",
            grad_scaler=GradScaler(init_scale=2.0 ** 10, growth_interval=8),
        )
        for _ in range(20):
            loss32 = t32.train_epoch(batches)
            loss16 = t16.train_epoch(batches)
        assert np.isfinite(loss16)
        assert abs(loss16 - loss32) < 0.02
        assert t16.grad_scaler.num_skipped == 0

    def test_one_stage_masters_stay_full_precision(self):
        trainer = _one_stage(_mlp(), precision="fp16")
        trainer.train_epoch(_batches())
        masters = _masters(trainer)
        for master in masters:
            assert master.dtype == np.float64
        # Masters hold values the fp16 round-trip would alter (i.e. the
        # accumulate really happened at full precision).
        assert any((quantize_fp16(m) != m).any() for m in masters)

    # The oversized scale overflows the fp16 gradients to inf.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_stage_oversized_scale_skips_then_recovers(self):
        """An absurd initial scale overflows the fp16 gradients; dynamic
        backoff halves it until steps land, and training proceeds."""
        batches = _batches()
        trainer = _one_stage(_mlp(), precision="fp16",
                             grad_scaler=GradScaler(init_scale=2.0 ** 40))
        before = [m.copy() for m in _masters(trainer)]
        trainer.train_epoch(batches[:1])
        assert trainer.grad_scaler.num_skipped == 1
        assert trainer.grad_scaler.scale == 2.0 ** 39
        assert all(
            (m == b).all() for m, b in zip(_masters(trainer), before)
        )  # the skipped step touched nothing
        losses = [trainer.train_epoch(batches) for _ in range(14)]
        assert trainer.grad_scaler.num_skipped > 1  # kept backing off...
        assert np.isfinite(losses[-1])
        assert losses[-1] < losses[2]  # ...then actually trained

    def test_one_stage_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            _one_stage(_mlp(), grad_scaler=GradScaler(), precision="fp32")
        with pytest.raises(ValueError):
            _one_stage(_mlp(), precision="bf16")

    def test_fp32_kwarg_is_bitwise_noop(self):
        """``precision="fp32"`` must leave the pipeline byte-for-byte on
        the historical path — the runtime half of the differential
        guarantee."""
        batches = _batches()
        m_ref, m_amp = _mlp(), _mlp()
        ref = PipelineTrainer(m_ref, _stages(m_ref), LOSS,
                              lambda ps: SGD(ps, lr=0.1))
        amp = PipelineTrainer(m_amp, _stages(m_amp), LOSS,
                              lambda ps: SGD(ps, lr=0.1), precision="fp32")
        assert amp.grad_scaler is None
        for _ in range(2):
            assert ref.train_epoch(batches) == amp.train_epoch(batches)
        for s in range(2):
            for a, b in zip(ref.replicas[s][0].module.parameters(),
                            amp.replicas[s][0].module.parameters()):
                assert (a.data == b.data).all()
        assert ref.network.total_bytes == amp.network.total_bytes

    def test_fp16_stashes_half_precision_keeps_masters(self):
        model = _mlp()
        trainer = PipelineTrainer(
            model, _stages(model), LOSS, lambda ps: SGD(ps, lr=0.1),
            precision="fp16",
            grad_scaler=GradScaler(init_scale=2.0 ** 10, growth_interval=4),
        )
        losses = [trainer.train_epoch(_batches()) for _ in range(5)]
        for s in range(2):
            replica = trainer.replicas[s][0]
            for name in replica.param_names:
                assert replica.store._latest.state[name].dtype == np.float16
                assert replica.master[name].dtype == np.float64
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] < losses[0]
        assert trainer.stats.loss_scale  # the output stage recorded scales

    def test_fp16_wire_traffic_shrinks_by_element_width(self):
        """Inter-stage activations/gradients ship as real float16, so the
        accounted boundary traffic shrinks by the element-width ratio
        (the reference engine computes in float64, so 8 -> 2 bytes)."""
        batches = _batches()
        for trainer_cls in (PipelineTrainer, ThreadedPipelineTrainer):
            m32, m16 = _mlp(), _mlp()
            t32 = trainer_cls(m32, _stages(m32), LOSS,
                              lambda ps: SGD(ps, lr=0.1))
            t16 = trainer_cls(m16, _stages(m16), LOSS,
                              lambda ps: SGD(ps, lr=0.1), precision="fp16")
            t32.train_epoch(batches)
            t16.train_epoch(batches)
            assert t32.network.total_bytes > 0, trainer_cls
            assert t16.network.total_bytes == t32.network.total_bytes / 4, (
                trainer_cls)

    # The oversized scale overflows, and inf crosses stage boundaries.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_threaded_fp16_bitwise_equals_logical(self):
        """One interpreter: loss scaling, fp16 payloads and overflow skips
        behave identically under the threaded driver."""
        batches = _batches()
        trainers = []
        for trainer_cls in (PipelineTrainer, ThreadedPipelineTrainer):
            model = _mlp()
            trainer = trainer_cls(
                model, _stages(model), LOSS, lambda ps: SGD(ps, lr=0.1),
                precision="fp16", grad_scaler=GradScaler(init_scale=2.0 ** 20),
            )
            for _ in range(3):
                trainer.train_epoch(batches)
            trainers.append(trainer)
        logical, threaded = trainers
        # Some rounds skip, then the backed-off scale lets updates land.
        assert sum(logical.stats.skipped_updates.values()) > 0
        assert min(logical.stage_versions()) > 0
        assert threaded.stats.losses == logical.stats.losses
        assert threaded.stats.loss_scale == logical.stats.loss_scale
        assert threaded.stats.skipped_updates == logical.stats.skipped_updates
        assert threaded.stage_versions() == logical.stage_versions()
        for s in range(2):
            for a, b in zip(logical.replicas[s][0].module.parameters(),
                            threaded.replicas[s][0].module.parameters()):
                assert np.array_equal(a.data, b.data)

    def test_fp16_pipeline_matches_fp32_loss(self):
        batches = _batches()
        m32, m16 = _mlp(), _mlp()
        t32 = PipelineTrainer(m32, _stages(m32), LOSS,
                              lambda ps: SGD(ps, lr=0.1))
        t16 = PipelineTrainer(
            m16, _stages(m16), LOSS, lambda ps: SGD(ps, lr=0.1),
            precision="fp16",
            grad_scaler=GradScaler(init_scale=2.0 ** 10, growth_interval=8),
        )
        for _ in range(15):
            loss32 = t32.train_epoch(batches)
            loss16 = t16.train_epoch(batches)
        assert abs(loss16 - loss32) < 0.02

    def test_fp16_replicated_stage(self):
        """Round gradients from a replicated stage are unscaled per member
        and ring-all_reduced; training still converges."""
        batches = _batches()
        model = _mlp()
        stages = [Stage(0, 2, 2), Stage(2, model.num_layers, 1)]
        trainer = PipelineTrainer(
            model, stages, LOSS, lambda ps: SGD(ps, lr=0.1),
            precision="fp16",
            grad_scaler=GradScaler(init_scale=2.0 ** 10, growth_interval=4),
        )
        losses = [trainer.train_epoch(batches) for _ in range(5)]
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] < losses[0]
        # Both replicas of stage 0 committed identical fp16 versions.
        r0, r1 = trainer.replicas[0]
        for name in r0.param_names:
            assert (r0.store._latest.state[name]
                    == r1.store._latest.state[name]).all()

    # inf gradients crossing stage boundaries produce inf*0 = nan inside
    # upstream backward ops — exactly the overflow the round-skip absorbs.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_round_skipped_and_scale_backs_off(self):
        batches = _batches()
        model = _mlp()
        trainer = PipelineTrainer(
            model, _stages(model), LOSS, lambda ps: SGD(ps, lr=0.1),
            precision="fp16", grad_scaler=GradScaler(init_scale=2.0 ** 40),
        )
        versions_before = trainer.stage_versions()
        trainer.train_epoch(batches)
        assert trainer.grad_scaler.num_skipped > 0
        assert trainer.grad_scaler.scale < 2.0 ** 40
        assert sum(trainer.stats.skipped_updates.values()) > 0
        # Skipped rounds commit no version on the output stage.
        applied = trainer.stage_versions()[-1] - versions_before[-1]
        assert applied < len(batches)

    def test_precision_validation(self):
        model = _mlp()
        with pytest.raises(ValueError):
            PipelineTrainer(model, _stages(model), LOSS,
                            lambda ps: SGD(ps, lr=0.1), precision="int8")
        with pytest.raises(ValueError):
            PipelineTrainer(model, _stages(model), LOSS,
                            lambda ps: SGD(ps, lr=0.1),
                            grad_scaler=GradScaler())
        with pytest.raises(ValueError):
            PipelineTrainer(model, _stages(model), LOSS,
                            lambda ps: SGD(ps, lr=0.1),
                            policy="none", precision="fp16")

    def test_fp16_checkpoint_round_trips_masters(self, tmp_path):
        batches = _batches()
        model = _mlp()
        trainer = PipelineTrainer(
            model, _stages(model), LOSS, lambda ps: SGD(ps, lr=0.1),
            precision="fp16",
            grad_scaler=GradScaler(init_scale=2.0 ** 10, growth_interval=4),
        )
        trainer.train_epoch(batches)
        manager = CheckpointManager(str(tmp_path))
        trainer.save_checkpoint(manager, epoch=0)
        masters = {
            s: {n: a.copy() for n, a in trainer.replicas[s][0].master.items()}
            for s in range(2)
        }
        trainer.train_epoch(batches)  # move past the checkpoint
        assert trainer.restore_checkpoint(manager) == 0
        for s in range(2):
            replica = trainer.replicas[s][0]
            for name, saved in masters[s].items():
                assert saved.dtype == np.float64
                assert (replica.master[name] == saved).all()
                assert replica.store._latest.state[name].dtype == np.float16
                assert (replica.store._latest.state[name]
                        == saved.astype(np.float16)).all()

    def test_fit_records_loss_scale(self):
        batches = _batches()
        model = _mlp()
        trainer = PipelineTrainer(
            model, _stages(model), LOSS, lambda ps: SGD(ps, lr=0.1),
            precision="fp16",
            grad_scaler=GradScaler(init_scale=2.0 ** 10, growth_interval=4),
        )
        result = fit(trainer, batches, evaluate=lambda: 0.0, epochs=3)
        assert len(result.history.loss_scale) == 3
        assert result.history.loss_scale[0] >= 2.0 ** 10

    def test_fp32_fit_records_no_scale(self):
        batches = _batches()
        model = _mlp()
        trainer = PipelineTrainer(model, _stages(model), LOSS,
                                  lambda ps: SGD(ps, lr=0.1))
        result = fit(trainer, batches, evaluate=lambda: 0.0, epochs=2)
        assert result.history.loss_scale == []
