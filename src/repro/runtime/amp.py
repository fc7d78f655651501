"""Mixed-precision training: fp16 emulation + loss scaling (Figure 12).

The paper's Figure 12 argues that PipeDream's gains carry over to mixed
precision because fp16 halves tensor *bytes* without removing the
communication bottleneck.  This module supplies the training-runtime half
of that axis, following the standard recipe (Micikevicius et al., "Mixed
Precision Training"):

- **fp16 storage, full-precision accumulate.**  The backing autodiff
  engine computes in float64, so fp16 is *emulated* by value: weights and
  gradients are round-tripped through ``np.float16`` (round-to-nearest-
  even, overflow to ``inf``) at every storage boundary while the optimizer
  keeps full-precision master copies.  Stashed weight versions and wire
  payloads hold actual ``np.float16`` arrays, so the §3.3 memory accounting
  and the byte-accounted :class:`~repro.comm.channel.Network` both see the
  halved sizes.
- **Loss scaling.**  fp16's representable range loses small gradients to
  zero; multiplying the loss by a scale factor shifts gradients up before
  the (emulated) fp16 round-trip, and the optimizer step divides it back
  out.  :class:`GradScaler` implements both static scaling and the dynamic
  scheme: skip the step and shrink the scale when scaled gradients
  overflow to inf/nan, grow the scale again after a run of stable steps.

The trainer is ``PipelineTrainer(..., precision="fp16")`` — one stage
of one replica for sequential training — which stores the low-precision
copy in every stashed weight version (§3.3) while each replica's
optimizer updates full-precision masters.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.profile import PRECISION_BYTES

__all__ = [
    "GradScaler",
    "PRECISION_BYTES",
    "quantize_fp16",
    "cast_payload_fp16",
    "upcast_payload",
    "payload_has_overflow",
]


def quantize_fp16(array: np.ndarray) -> np.ndarray:
    """Round-trip ``array`` through fp16, keeping its original dtype.

    This is the emulation primitive: values become exactly fp16-
    representable (round-to-nearest-even; magnitudes above 65504 become
    ``inf``, subnormals flush toward zero) while the array stays in the
    engine's compute dtype.  Integer arrays (token ids) pass through.
    """
    arr = np.asarray(array)
    if arr.dtype.kind in "iub":
        return arr
    with np.errstate(over="ignore"):
        return arr.astype(np.float16).astype(arr.dtype)


def cast_payload_fp16(payload):
    """Cast a boundary payload (array or tuple) to actual ``np.float16``.

    Used on the wire and in stashed weight versions so byte accounting
    (``Network``, ``WeightStore.memory_bytes``) sees genuinely halved
    sizes.  Integer arrays and ``None`` pass through.
    """
    if payload is None:
        return None
    if isinstance(payload, tuple):
        return tuple(cast_payload_fp16(element) for element in payload)
    arr = np.asarray(payload)
    if arr.dtype.kind in "iub":
        return arr
    with np.errstate(over="ignore"):
        return arr.astype(np.float16)


def upcast_payload(payload, dtype=np.float64):
    """Upcast fp16 wire payloads back to the compute dtype on receipt."""
    if payload is None:
        return None
    if isinstance(payload, tuple):
        return tuple(upcast_payload(element, dtype) for element in payload)
    arr = np.asarray(payload)
    if arr.dtype == np.float16:
        return arr.astype(dtype)
    return arr


def payload_has_overflow(grads: Union[Dict[str, np.ndarray], Sequence[np.ndarray]]) -> bool:
    """True when any gradient array contains inf or nan."""
    arrays = grads.values() if isinstance(grads, dict) else grads
    return any(
        g is not None and not np.isfinite(g).all() for g in arrays
    )


class GradScaler:
    """Loss scaling with the standard dynamic grow/backoff state machine.

    Static mode (``dynamic=False``) multiplies the loss by ``init_scale``
    forever and only *reports* overflow; dynamic mode (the default)
    additionally:

    - on an inf/nan gradient: the step is **skipped** and the scale is
      multiplied by ``backoff_factor`` (never below ``min_scale``);
    - after ``growth_interval`` consecutive stable steps: the scale is
      multiplied by ``growth_factor`` (never above ``max_scale``), probing
      for the largest scale the model's gradients tolerate.

    The scale is intentionally kept a power of two by the defaults, so
    scaling/unscaling are exact in binary floating point and an fp32 run
    with scale 1 is bitwise-unaffected.
    """

    def __init__(
        self,
        init_scale: float = 2.0 ** 16,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 100,
        dynamic: bool = True,
        min_scale: float = 1.0,
        max_scale: float = 2.0 ** 24,
    ):
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1.0")
        if not 0.0 < backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")
        if growth_interval < 1:
            raise ValueError("growth_interval must be >= 1")
        self._scale = float(init_scale)
        self.growth_factor = float(growth_factor)
        self.backoff_factor = float(backoff_factor)
        self.growth_interval = int(growth_interval)
        self.dynamic = bool(dynamic)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self._growth_tracker = 0
        self.num_skipped = 0
        self.num_growths = 0

    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        return self._scale

    def scale_loss(self, loss):
        """``loss * scale``; works on Tensors and plain floats alike."""
        return loss * self._scale

    def unscale(self, grads):
        """Divide gradients (list or dict) by the current scale."""
        if isinstance(grads, dict):
            return {name: g / self._scale for name, g in grads.items()}
        return [None if g is None else g / self._scale for g in grads]

    def found_inf(self, grads) -> bool:
        return payload_has_overflow(grads)

    def update(self, found_inf: bool) -> None:
        """Advance the state machine after one optimizer-step attempt."""
        if found_inf:
            self.num_skipped += 1
            self._growth_tracker = 0
            if self.dynamic:
                self._scale = max(self.min_scale,
                                  self._scale * self.backoff_factor)
            return
        self._growth_tracker += 1
        if self.dynamic and self._growth_tracker >= self.growth_interval:
            self._growth_tracker = 0
            if self._scale < self.max_scale:
                self._scale = min(self.max_scale,
                                  self._scale * self.growth_factor)
                self.num_growths += 1

    def step(self, optimizer, grads: Sequence[Optional[np.ndarray]]) -> bool:
        """Unscale ``grads`` and step, or skip on overflow; True if stepped.

        ``grads`` are the *scaled* (and, under fp16 emulation, already
        fp16-quantized) gradients; overflow is detected before unscaling
        since inf/nan survive division.
        """
        if self.found_inf(grads):
            self.update(True)
            return False
        optimizer.step(self.unscale(grads))
        self.update(False)
        return True

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, float]:
        return {
            "scale": self._scale,
            "growth_tracker": self._growth_tracker,
            "num_skipped": self.num_skipped,
            "num_growths": self.num_growths,
        }

    def load_state_dict(self, state: Dict[str, float]) -> None:
        self._scale = float(state["scale"])
        self._growth_tracker = int(state["growth_tracker"])
        self.num_skipped = int(state.get("num_skipped", 0))
        self.num_growths = int(state.get("num_growths", 0))

    def __repr__(self) -> str:
        mode = "dynamic" if self.dynamic else "static"
        return (f"GradScaler({mode}, scale={self._scale:g}, "
                f"skipped={self.num_skipped}, growths={self.num_growths})")
