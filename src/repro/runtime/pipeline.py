"""The training runtime: schedule-table execution with weight versioning.

The trainer materializes each stage replica as an independent module copy
with its own :class:`~repro.core.stashing.WeightStore` and optimizer, then
executes a static schedule's table (1F1B-RR, GPipe, BSP or ASP).  One
interpreter, two drivers: :meth:`PipelineTrainer._run_op` runs one table op
(kind, stage, minibatch codes) and is all the code that gives ops their
meaning; this class drives it with logical workers in lockstep sweeps
(:func:`~repro.core.schedule.lockstep_walk`: one ready op per worker per
sweep, an approximation of wall-clock interleaving), and
:class:`~repro.runtime.threaded.ThreadedPipelineTrainer` with one thread
per worker.  Activation and gradient "messages" are numpy arrays sent
through the trainer's accounted :class:`~repro.comm.Network` (for the
threaded driver, its blocking subclass); round-robin routing runs a
minibatch's forward and backward on the same replica.  Both drivers are
bitwise-equal on pipelines without replicated stages, for every schedule
family, precision, weight policy and accumulation window.

Weight policies (§3.3):

- ``"stashing"`` (default): the forward pass binds the stage parameters to
  the latest committed version; the autodiff tape captures those arrays, so
  the backward pass computes gradients with exactly the forward's weights.
- ``"vertical_sync"``: minibatches are pinned to the weight version seen at
  the input stage; downstream stages use their snapshot of that version.
- ``"none"``: naive pipelining — parameters are updated *in place*, so
  in-flight tapes observe newer weights during backward: the invalid
  gradients of a naively pipelined system.

Replicated stages synchronize gradients per round (one sweep of replicas),
averaging across replicas and applying the same update everywhere, mirroring
PyTorch DDP semantics over each stage (§4 "Stage Replication").  An
UPDATE reduces each complete round its worker fed since its last UPDATE
(a whole flush under GPipe), then applies the accumulation window; under
the threaded driver every member's UPDATE waits for those reductions.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.engine import Tensor, no_grad
from repro.comm import Network, ring_allreduce
from repro.core.partition import Stage, _check_stages
from repro.core.profile import PRECISION_BYTES
from repro.core.schedule import (
    BWD,
    BWD_W,
    FWD,
    UPD,
    Schedule,
    lockstep_walk,
    one_f_one_b_rr_schedule,
    schedule_for_family,
)
from repro.core.stashing import WeightStore
from repro.models.base import LayeredModel
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.runtime.amp import (
    GradScaler,
    cast_payload_fp16,
    quantize_fp16,
    upcast_payload,
)


def _wrap_element(element, first_stage: bool):
    """Wrap one payload element (see ``_StageReplica._wrap_input``)."""
    if isinstance(element, Tensor):
        return element
    raw = np.asarray(element)
    if np.issubdtype(raw.dtype, np.integer):
        return raw
    return Tensor(raw, requires_grad=not first_stage)


def _element_data(element):
    return element.data if isinstance(element, Tensor) else element


def _payload_data(out):
    """Raw arrays of a module output (tensor or tuple of tensors/arrays)."""
    if isinstance(out, tuple):
        return tuple(_element_data(o) for o in out)
    return out.data


def _payload_backward(out, grad) -> None:
    """Backpropagate a (possibly tuple) output against matching grads.

    Gradients accumulate across the per-element backward calls, exactly as
    if one combined scalar had been differentiated.
    """
    if isinstance(out, tuple):
        if not isinstance(grad, tuple) or len(grad) != len(out):
            raise ValueError("gradient payload does not match output tuple")
        for element, g in zip(out, grad):
            if isinstance(element, Tensor) and element.requires_grad and g is not None:
                element.backward(g)
        return
    out.backward(grad)


def _payload_input_grad(inp):
    """Input-gradient payload mirroring the input payload's structure."""
    if inp is None:
        return None
    if isinstance(inp, tuple):
        return tuple(
            (e.grad if isinstance(e, Tensor) and e.grad is not None else None)
            for e in inp
        )
    return inp.grad if inp.grad is not None else None


class _StageReplica:
    """One worker's slice of the model, with versioned parameters."""

    def __init__(
        self,
        stage_index: int,
        replica_index: int,
        module: Module,
        policy: str,
        optimizer_factory: Callable[[List], Optimizer],
        recompute_activations: bool = False,
        precision: str = "fp32",
    ):
        self.stage_index = stage_index
        self.replica_index = replica_index
        self.module = module
        self.policy = policy
        self.recompute_activations = recompute_activations
        self.precision = precision
        self.named_params = list(module.named_parameters())
        self.param_names = [name for name, _ in self.named_params]
        self.optimizer = optimizer_factory(module.parameters())
        if policy == "none":
            if not isinstance(self.optimizer, SGD):
                raise ValueError("the 'none' policy requires an SGD optimizer")
            self.optimizer.in_place = True
        if precision == "fp16":
            # Full-precision masters stay with the optimizer; every stashed
            # weight version holds the actual ``np.float16`` copy, so the
            # store's §3.3 memory accounting sees the halved footprint.
            self.master: Optional[Dict[str, np.ndarray]] = {
                name: p.data.copy() for name, p in self.named_params
            }
            initial = {
                name: cast_payload_fp16(p.data) for name, p in self.named_params
            }
        else:
            self.master = None
            initial = {name: p.data for name, p in self.named_params}
        self.store = WeightStore(initial, policy=policy)
        # In-flight state per minibatch.
        self.contexts: Dict[int, Tuple[Optional[Tensor], Tensor]] = {}
        self.forward_versions: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _bind_version(self, version) -> None:
        if self.precision == "fp16":
            # Stored versions are fp16; compute runs on their exact values
            # upcast to the engine dtype (fp16 numbers are representable
            # exactly, so this is the cast-for-compute of the AMP recipe).
            for name, param in self.named_params:
                param.data = version.state[name].astype(np.float64)
            return
        for name, param in self.named_params:
            param.data = version.state[name]

    def forward(self, minibatch: int, x, first_stage: bool, pinned: Optional[int]):
        if self.policy == "vertical_sync" and pinned is not None and not first_stage:
            self.store.pin(minibatch, pinned)
        version = self.store.weights_for_forward(minibatch)
        if self.policy != "none":
            self._bind_version(version)
        self.forward_versions[minibatch] = version.version
        inp, raw = self._wrap_input(x, first_stage)
        if self.recompute_activations:
            # GPipe-style memory saving (§3.3): run without a tape and keep
            # only the raw input; the backward pass re-runs the forward
            # with the *stashed* weight version to rebuild the tape.
            with no_grad():
                out = self.module(inp if inp is not None else raw)
            self.contexts[minibatch] = (None, raw)
        else:
            out = self.module(inp if inp is not None else raw)
            self.contexts[minibatch] = (inp if not first_stage else None, out)
        return _payload_data(out), version.version

    @staticmethod
    def _wrap_input(x, first_stage: bool):
        """Wrap a boundary payload for the module.

        Payloads are a single array or a tuple of arrays (multi-tensor
        stage boundaries, e.g. encoder outputs + decoder state).  Float
        arrays become tensors that collect input gradients on non-input
        stages; integer token ids stay raw.  Returns ``(wrapped, raw)``
        where ``wrapped`` is what the module consumes (or None when nothing
        needs gradients and ``raw`` should be passed directly).
        """
        if isinstance(x, tuple):
            wrapped = tuple(
                _wrap_element(element, first_stage) for element in x
            )
            return wrapped, tuple(_element_data(w) for w in wrapped)
        if isinstance(x, Tensor):
            return x, x
        raw = np.asarray(x)
        if np.issubdtype(raw.dtype, np.integer):
            return None, raw  # token ids; no gradient flows back
        return Tensor(raw, requires_grad=not first_stage), raw

    def backward(self, minibatch: int, output_grad,
                 loss_fn=None, target=None,
                 loss_scale: float = 1.0) -> Tuple[object, Dict[str, np.ndarray], float]:
        """Run the stage backward; returns (input grad payload, param grads,
        loss).

        ``loss_scale`` multiplies the loss before differentiation on the
        output stage (AMP loss scaling); the returned loss value is always
        the unscaled one.  Under fp16 the parameter gradients are
        round-tripped through fp16 so overflow shows up as ``inf``.
        """
        if self.policy != "none":
            version = self.store.weights_for_backward(minibatch)
        else:
            version = None
        inp, out = self.contexts.pop(minibatch)
        if self.recompute_activations:
            # Rebuild the tape with the exact weights the forward pass used
            # (the stashed version), then backward through it.
            if version is not None:
                self._bind_version(version)
            first_stage = self.stage_index == 0
            tensor_in, raw_in = self._wrap_input(out, first_stage)  # out = stored raw input
            out = self.module(tensor_in if tensor_in is not None else raw_in)
            inp = None if first_stage else tensor_in
        self.module.zero_grad()
        loss_value = 0.0
        if loss_fn is not None:
            loss = loss_fn(out, target)
            loss_value = loss.item()
            if loss_scale != 1.0:
                (loss * loss_scale).backward()
            else:
                loss.backward()
        else:
            _payload_backward(out, output_grad)
        if self.precision == "fp16":
            grads = {
                name: (quantize_fp16(p.grad) if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in self.named_params
            }
        else:
            grads = {
                name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for name, p in self.named_params
            }
        return _payload_input_grad(inp), grads, loss_value

    def apply_update(self, averaged: Dict[str, np.ndarray]) -> int:
        """Apply an (averaged) gradient and commit a new weight version."""
        if self.policy == "none":
            self.optimizer.step([averaged[name] for name in self.param_names])
            return 0
        if self.precision == "fp16":
            # Step on the full-precision masters (the gradients arrive
            # already unscaled), then commit the fp16 copy of the result.
            for name, param in self.named_params:
                param.data = self.master[name]
            self.optimizer.step([averaged[name] for name in self.param_names])
            self.master = {name: p.data for name, p in self.named_params}
            return self.store.commit(
                {name: cast_payload_fp16(p.data) for name, p in self.named_params}
            )
        latest = self.store._latest
        self._bind_version(latest)
        self.optimizer.step([averaged[name] for name in self.param_names])
        return self.store.commit({name: p.data for name, p in self.named_params})

    @property
    def latest_version(self) -> int:
        return self.store.latest_version

    def memory_bytes(self) -> int:
        def nbytes(payload) -> int:
            if payload is None:
                return 0
            if isinstance(payload, tuple):
                return sum(nbytes(element) for element in payload)
            return payload.nbytes

        versions = self.store.memory_bytes()
        activations = sum(
            nbytes(ctx[1]) + nbytes(ctx[0]) for ctx in self.contexts.values()
        )
        return versions + activations


class _Run:
    """The state one schedule execution shares across its workers."""

    def __init__(self, schedule: Schedule, batches):
        self.schedule = schedule
        self.batches = batches
        self.replica_of = {w: q for workers in schedule.stage_workers.values()
                           for q, w in enumerate(workers)}
        self.pins: Dict[int, int] = {}
        self.losses: List[Optional[float]] = [None] * len(batches)
        # One slot per (stage, update round), made up front, of
        # (minibatch, grads) contributions: workers only append to a slot
        # (one atomic append each) and its commit deletes it, so threads
        # sharing this dict never check-then-insert.
        self.round_grads: Dict[Tuple[int, int],
                               List[Tuple[int, Dict[str, np.ndarray]]]] = {
            (s, rnd): [] for s, stage in enumerate(schedule.stages)
            for rnd in range(-(-len(batches) // stage.replicas))}
        # The scale each minibatch's loss was multiplied by (1.0 unless
        # AMP), captured at its output-stage backward — upstream gradients
        # inherit it through the chain rule — so each round member is
        # unscaled individually before averaging.
        self.mb_scale: Dict[int, float] = {}
        # 2BP (backward-split) schedules: the grad-input half (BWD) sends
        # the upstream gradient immediately; the parameter gradients sit
        # here until the trailing grad-weight op (BWD_W) joins them to the
        # update round.
        self.pending_w: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}
        # The update rounds each worker has fed since its last UPDATE.
        self.fed: Dict[int, List[int]] = {w: [] for w in self.replica_of}
        self.samples = [len(y) for _, y in batches]


@dataclass
class PipelineStats:
    """Diagnostics collected during pipelined training."""

    mean_loss: float = 0.0
    losses: List[float] = field(default_factory=list)
    forward_versions: Dict[Tuple[int, int], int] = field(default_factory=dict)
    peak_memory_bytes: Dict[int, int] = field(default_factory=dict)
    peak_live_versions: Dict[int, int] = field(default_factory=dict)
    #: AMP only: loss scale after each output-stage update round, and the
    #: number of update rounds each stage skipped on gradient overflow.
    loss_scale: List[float] = field(default_factory=list)
    skipped_updates: Dict[int, int] = field(default_factory=dict)


class PipelineTrainer:
    """Train a :class:`LayeredModel` with PipeDream semantics.

    Args:
        model: the layered model; stage modules are deep-copied per replica.
        stages: contiguous stage partition (e.g. from the optimizer).
        loss_fn: ``loss_fn(logits, targets) -> Tensor`` applied at the
            output stage.
        optimizer_factory: builds a fresh optimizer from a parameter list
            for every stage replica.
        policy: ``"stashing"`` | ``"vertical_sync"`` | ``"none"``.
        gradient_accumulation: update rounds aggregated per weight update.
            Set to the pipeline's warmup depth
            (``core.schedule.warmup_count(stages, 0)``), it gives
            PipeDream-2BW's double-buffered weights: every in-flight
            minibatch stashes one of at most two versions.
        precision: ``"fp32"`` (default, byte-for-byte the historical
            behavior) or ``"fp16"`` — emulated mixed precision: stashed
            weight versions and inter-stage payloads are ``np.float16``,
            optimizers keep full-precision masters, and the loss is scaled
            by ``grad_scaler``.
        grad_scaler: AMP loss scaler; defaults to a dynamic
            :class:`GradScaler` when ``precision="fp16"``.  The output
            stage drives its grow/backoff state machine; each stage skips
            its own update round when its scaled gradients overflow.
    """

    def __init__(
        self,
        model: LayeredModel,
        stages: Sequence[Stage],
        loss_fn,
        optimizer_factory: Callable[[List], Optimizer],
        policy: str = "stashing",
        recompute_activations: bool = False,
        gradient_accumulation: int = 1,
        precision: str = "fp32",
        grad_scaler: Optional[GradScaler] = None,
    ):
        _check_stages(model.num_layers, stages)
        if gradient_accumulation < 1:
            raise ValueError("gradient_accumulation must be >= 1")
        if precision not in PRECISION_BYTES:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of "
                f"{sorted(PRECISION_BYTES)}")
        if precision == "fp16" and policy == "none":
            raise ValueError(
                "precision='fp16' requires weight versioning; the in-place "
                "'none' policy has no master copies to accumulate into")
        if precision != "fp16" and grad_scaler is not None:
            raise ValueError("grad_scaler requires precision='fp16'")
        self.model = model
        self.stages = list(stages)
        self.loss_fn = loss_fn
        self.policy = policy
        self.precision = precision
        self.grad_scaler = (
            grad_scaler if grad_scaler is not None else GradScaler()
        ) if precision == "fp16" else None
        self.gradient_accumulation = gradient_accumulation
        self.replicas: Dict[int, List[_StageReplica]] = {}
        for s, stage in enumerate(self.stages):
            group = []
            for q in range(stage.replicas):
                module = copy.deepcopy(model.stage_module(stage.start, stage.stop))
                group.append(_StageReplica(
                    s, q, module, policy, optimizer_factory,
                    # The trainer-wide flag ORs with the planner's per-stage
                    # decision (Stage.recompute), so a plan that checkpoints
                    # only some stages runs exactly as priced.
                    recompute_activations=(
                        recompute_activations or stage.recompute),
                    precision=precision,
                ))
            self.replicas[s] = group
        self.num_stages = len(self.stages)
        self.stats = PipelineStats()
        # Gradient aggregation (§3.3 memory reduction): accumulated round
        # gradients per stage, applied every ``gradient_accumulation`` rounds.
        self._pending_rounds: Dict[int, List[Dict[str, np.ndarray]]] = defaultdict(list)
        # All inter-worker traffic (activations, gradients, all_reduce
        # chunks) flows through one accounted network, so measured volumes
        # can be checked against the Figure 17 model.
        self.network = Network()

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def train_minibatches(
        self,
        batches: Sequence[Tuple[np.ndarray, np.ndarray]],
        schedule_family: str = "1f1b",
    ) -> float:
        """Run the 1F1B-RR schedule over ``batches``; returns mean loss.

        ``schedule_family="1f1b"`` (default) executes the classic 1F1B-RR
        schedule unchanged; ``"2bp"`` splits every backward into a
        grad-input op (which unblocks the upstream stage) and a deferred
        grad-weight op that commits the parameter gradients.
        """
        return self.execute(schedule_for_family(one_f_one_b_rr_schedule(
            self.stages, len(batches)), schedule_family), batches)

    def train_epoch(self, batches: Sequence[Tuple[np.ndarray, np.ndarray]]) -> float:
        return self.train_minibatches(list(batches))

    def execute(self, schedule: Schedule, batches) -> float:
        """Run ``schedule``, built on this trainer's stages, over
        ``batches``; returns the sample-weighted mean loss.  Each strategy
        is a table: 1F1B-RR (PipeDream; BSP on one replicated stage),
        :func:`~repro.core.schedule.asp_schedule` (ASP) and
        :func:`~repro.core.schedule.gpipe_schedule` (GPipe)."""
        run = self._start(schedule, batches)
        for worker, kind, stage, minibatch in lockstep_walk(schedule):
            self._run_op(run, worker, kind, stage, minibatch)
        return self._finish(run)

    def _start(self, schedule: Schedule, batches) -> _Run:
        if list(schedule.stages) != self.stages:
            raise ValueError(
                f"schedule stages {schedule.stages} are not {self.stages}")
        if len(batches) != schedule.num_minibatches:
            raise ValueError(f"{len(batches)} batches for "
                             f"{schedule.num_minibatches} minibatches")
        return _Run(schedule, batches)

    def _run_op(self, run: _Run, worker: int, kind: int, s: int, b: int) -> None:
        """Run one schedule-table op — ``kind`` code at stage ``s`` on
        minibatch ``b`` — on ``worker``, messaging through ``self.network``."""
        replica = self.replicas[s][run.replica_of[worker]]
        peer = run.schedule.replica_for
        network = self.network
        fp16 = self.precision == "fp16"
        last = self.num_stages - 1
        if kind == FWD:
            if s == 0:
                x = run.batches[b][0]
            else:
                x = network.recv(peer(s - 1, b), worker, ("act", s - 1, b))
            out, version = replica.forward(
                b, x, first_stage=(s == 0), pinned=run.pins.get(b)
            )
            if s == 0 and self.policy == "vertical_sync":
                run.pins[b] = version
            self.stats.forward_versions[(s, b)] = version
            if s < last:
                if fp16:
                    out = cast_payload_fp16(out)
                network.send(worker, peer(s + 1, b), ("act", s, b), out)
            self._track_memory(worker, replica)
        elif kind == BWD:
            if s == last:
                scale = self.grad_scaler.scale if fp16 else 1.0
                run.mb_scale[b] = scale
                grad_in, grads, run.losses[b] = replica.backward(
                    b, None, loss_fn=self.loss_fn, target=run.batches[b][1],
                    loss_scale=scale,
                )
            else:
                grad_out = network.recv(peer(s + 1, b), worker, ("grad", s, b))
                if fp16:
                    grad_out = upcast_payload(grad_out)
                grad_in, grads, _ = replica.backward(b, grad_out)
            if s > 0:
                if fp16:
                    grad_in = cast_payload_fp16(grad_in)
                network.send(worker, peer(s - 1, b), ("grad", s - 1, b), grad_in)
            run.pending_w[(s, b)] = grads
            if not run.schedule.backward_split:
                kind = BWD_W  # an unsplit backward is its own grad-weight op
        if kind == BWD_W:
            rnd = b // self.stages[s].replicas
            run.round_grads[(s, rnd)].append((b, run.pending_w.pop((s, b))))
            run.fed[worker].append(rnd)
        elif kind == UPD:
            rounds, run.fed[worker] = run.fed[worker], []
            self._update(run, s, rounds)

    def _finish(self, run: _Run) -> float:
        # Weights relative to the first batch: equal sizes are the plain mean.
        mean = float(np.average(run.losses, weights=np.divide(
            run.samples, run.samples[0]))) if run.losses else math.nan
        self.stats.losses.extend(run.losses)
        self.stats.mean_loss = mean
        return mean

    def _update(self, run: _Run, stage: int, rounds: List[int]) -> None:
        """One UPDATE op: reduce each complete round of ``rounds``, then apply
        the pending window once full or once the stage's last round is in."""
        last = [self._reduce_round(run, stage, rnd) for rnd in rounds]
        if any(last) or len(self._pending_rounds[stage]) >= self.gradient_accumulation:
            self._apply_pending(stage)

    def _reduce_round(self, run: _Run, stage: int, rnd: int) -> bool:
        """All-reduce update round ``rnd`` into the pending window once all
        its members are in; True when that was the stage's last round."""
        replicas = self.stages[stage].replicas
        num_minibatches = len(run.batches)
        members = max(1, min(replicas, num_minibatches - rnd * replicas))
        contributions = run.round_grads.get((stage, rnd), ())
        if len(contributions) < members:
            return False
        is_last_round = (rnd + 1) * replicas >= num_minibatches
        # AMP: every member was produced under its own loss scale (the
        # scale may move between update rounds); unscale each before
        # averaging.  inf/nan survive the division, so overflow in the
        # scaled fp16 gradients is still visible afterwards.
        grads_list = [
            {name: g / run.mb_scale[b] for name, g in grads.items()}
            if run.mb_scale[b] != 1.0 else grads
            for b, grads in contributions
        ]
        if self.precision == "fp16":
            overflow = any(
                not np.isfinite(g).all()
                for grads in grads_list for g in grads.values()
            )
            if stage == self.num_stages - 1:
                # The output stage sees the loss and drives the scaler's
                # grow/backoff state machine (an emulation relaxation:
                # stages skip independently rather than via a global
                # found-inf broadcast).
                self.grad_scaler.update(overflow)
                self.stats.loss_scale.append(self.grad_scaler.scale)
            if overflow:
                del run.round_grads[(stage, rnd)]
                self.stats.skipped_updates[stage] = (
                    self.stats.skipped_updates.get(stage, 0) + 1)
                return is_last_round
        if len(grads_list) == 1:
            averaged = grads_list[0]
        else:
            # Real ring all_reduce across the stage's replicas, through the
            # accounted network (each replica ships 2(m-1)/m of its grads).
            reduced = ring_allreduce(grads_list, self.network, average=True)
            averaged = reduced[0]
        del run.round_grads[(stage, rnd)]
        # Samples per member weigh the round: GPipe's uneven microbatches.
        per_member = sum(run.samples[b] for b, _ in contributions) / members
        self._pending_rounds[stage].append((per_member, averaged))
        return is_last_round

    def _apply_pending(self, stage: int) -> None:
        """Average and apply the stage's accumulated round gradients."""
        pending = self._pending_rounds.pop(stage, [])
        if not pending:
            return
        if len(pending) > 1:
            # Weights relative to the first round: equal ones (every
            # window but GPipe's uneven microbatches) are the plain mean.
            scale = [w / pending[0][0] for w, _ in pending]
            averaged = {
                name: sum(g[name] * c for c, (_, g) in zip(scale, pending))
                / sum(scale)
                for name in pending[0][1]
            }
        else:
            averaged = pending[0][1]
        for replica in self.replicas[stage]:
            replica.apply_update(averaged)

    def _track_memory(self, worker: int, replica: _StageReplica) -> None:
        current = replica.memory_bytes()
        if current > self.stats.peak_memory_bytes.get(worker, 0):
            self.stats.peak_memory_bytes[worker] = current
        live = replica.store.num_live_versions
        if live > self.stats.peak_live_versions.get(worker, 0):
            self.stats.peak_live_versions[worker] = live

    # ------------------------------------------------------------------
    # Consolidation back into the source model
    # ------------------------------------------------------------------
    def consolidated_model(self) -> LayeredModel:
        """Write replica-0 weights of every stage back into ``self.model``."""
        for s, stage in enumerate(self.stages):
            source = self.replicas[s][0].module
            target = self.model.stage_module(stage.start, stage.stop)
            target.load_state_dict(source.state_dict())
        return self.model

    def stage_versions(self) -> List[int]:
        return [self.replicas[s][0].latest_version for s in range(self.num_stages)]

    # ------------------------------------------------------------------
    # Checkpointing (§4): each stage dumps its parameters locally; restart
    # resumes from the newest epoch every stage completed.
    # ------------------------------------------------------------------
    def save_checkpoint(self, manager, epoch: int) -> None:
        """Write every stage replica's latest weights for ``epoch``.

        fp16 replicas checkpoint their full-precision masters — the
        restartable state — not the low-precision stash copies.
        """
        for s in range(self.num_stages):
            for q, replica in enumerate(self.replicas[s]):
                if replica.master is not None:
                    state = replica.master
                elif replica.policy != "none":
                    state = replica.store._latest.state
                else:
                    state = {n: p.data for n, p in replica.named_params}
                manager.save_stage(s, q, epoch, state)
        manager.mark_epoch_complete(
            epoch, self.num_stages, [st.replicas for st in self.stages]
        )

    def restore_checkpoint(self, manager) -> Optional[int]:
        """Load the newest epoch all stages checkpointed; returns it.

        Returns ``None`` (and leaves weights untouched) when no complete
        checkpoint exists.  Version stores restart from version 0 of the
        restored weights, exactly as a restarted process would.
        """
        replicas_per_stage = [st.replicas for st in self.stages]
        epoch = manager.latest_complete_epoch(self.num_stages, replicas_per_stage)
        if epoch is None:
            return None
        for s in range(self.num_stages):
            for q, replica in enumerate(self.replicas[s]):
                self._install_replica_state(replica, manager.load_stage(s, q, epoch))
        return epoch

    def load_stage_states(self, states: Sequence[Dict[str, np.ndarray]]) -> None:
        """Install one parameter dict per stage; every replica gets a copy.

        State keys are stage-relative (``"{layer_offset}.{param_path}"``),
        the same layout checkpoints use.  Version stores restart from
        version 0, exactly as :meth:`restore_checkpoint` — this is the
        entry point the elastic control loop uses to resume a *different*
        partition of the same model from remapped checkpoint state.
        """
        if len(states) != self.num_stages:
            raise ValueError(
                f"got {len(states)} stage states for {self.num_stages} stages"
            )
        for s, state in enumerate(states):
            for replica in self.replicas[s]:
                self._install_replica_state(replica, state)

    @staticmethod
    def _install_replica_state(replica: _StageReplica,
                               state: Dict[str, np.ndarray]) -> None:
        """Overwrite a replica's weights and restart its version store."""
        for name, param in replica.named_params:
            param.data = state[name].copy()
        if replica.master is not None:
            replica.master = {
                name: p.data for name, p in replica.named_params
            }
            initial = {
                name: cast_payload_fp16(p.data)
                for name, p in replica.named_params
            }
        else:
            initial = {name: p.data for name, p in replica.named_params}
        replica.store = WeightStore(initial, policy=replica.policy)
        replica.contexts.clear()
