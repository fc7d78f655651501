"""Per-layer profiles: the ``(T_l, a_l, w_l)`` triples of §3.1.

A :class:`ModelProfile` is the sole input the partitioner needs; it can come
from the measured profiler (timing the executable numpy model), from the
analytic profiler (published layer statistics of the paper's full-size
models), or be constructed by hand in tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

#: Canonical precision names -> element width.  The single registry behind
#: the sweep's precision axis, the CLI's ``--precision`` flag, and the AMP
#: runtime; ``ModelProfile.with_precision(PRECISION_BYTES[p])`` converts a
#: profile to precision ``p``.
PRECISION_BYTES: Dict[str, int] = {"fp32": 4, "fp16": 2}

#: Layer kinds whose weight gradients accumulate across BPTT timesteps and
#: only complete at the end of the backward pass — their all_reduce cannot
#: overlap compute (§2.1 wait-free backprop does not apply to them), and
#: their updates land once per round of replicas (§3.3).
RECURRENT_KINDS = ("lstm", "embedding")


@dataclass(frozen=True)
class LayerProfile:
    """Profile of one layer for one minibatch.

    Attributes:
        name: Layer name, matching the layer graph.
        compute_time: ``T_l`` — combined forward+backward time (seconds) for
            one minibatch on the reference device.
        activation_bytes: ``a_l`` — bytes of output activations for one
            minibatch (equal to the backward-pass input-gradient bytes).
        weight_bytes: ``w_l`` — bytes of trainable parameters.
        forward_time: Optional split of ``compute_time``; when absent the
            canonical 1:2 forward:backward ratio is assumed.
        kind: Operator family (``"conv"``, ``"fc"``, ``"lstm"``, ...).  The
            data-parallel simulator uses it to decide *when* a layer's
            weight gradient becomes available for wait-free backprop:
            BPTT-accumulated kinds (``lstm``, ``embedding``) only finish at
            the end of the backward pass and cannot overlap their
            all_reduce, unlike conv/fc layers.
    """

    name: str
    compute_time: float
    activation_bytes: int
    weight_bytes: int
    forward_time: Optional[float] = None
    kind: str = "other"

    def __post_init__(self):
        # The one place profile numbers are checked: every consumer (the
        # planner's prefix sums, the evaluator, both simulator engines)
        # assumes finite, non-negative costs, and a NaN or negative entry
        # otherwise surfaces as "no feasible partition" or as a plan
        # priced with negative time.
        fields = ("compute_time", "activation_bytes", "weight_bytes")
        if self.forward_time is not None:
            fields += ("forward_time",)
        for field in fields:
            value = getattr(self, field)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"layer {self.name!r}: {field} must be finite and >= 0, "
                    f"got {value!r}"
                )

    @property
    def forward(self) -> float:
        if self.forward_time is not None:
            return self.forward_time
        return self.compute_time / 3.0

    @property
    def backward(self) -> float:
        return self.compute_time - self.forward


class ModelProfile:
    """An ordered collection of layer profiles plus minibatch metadata."""

    def __init__(
        self,
        model_name: str,
        layers: Sequence[LayerProfile],
        batch_size: int,
        bytes_per_element: int = 4,
    ):
        if not layers:
            raise ValueError("profile needs at least one layer")
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.model_name = model_name
        self.layers: List[LayerProfile] = list(layers)
        self.batch_size = batch_size
        self.bytes_per_element = bytes_per_element
        self._digest: Optional[str] = None

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index) -> LayerProfile:
        return self.layers[index]

    # ------------------------------------------------------------------
    # Aggregates used by the partitioner
    # ------------------------------------------------------------------
    def compute_time(self, start: int, stop: int) -> float:
        """Total T_l over layers start..stop-1."""
        return sum(l.compute_time for l in self.layers[start:stop])

    def weight_bytes(self, start: int, stop: int) -> int:
        return sum(l.weight_bytes for l in self.layers[start:stop])

    def activation_bytes(self, index: int) -> int:
        """Output activation bytes of layer ``index`` (stage-boundary cost)."""
        return self.layers[index].activation_bytes

    @property
    def total_compute_time(self) -> float:
        return self.compute_time(0, len(self.layers))

    @property
    def total_weight_bytes(self) -> int:
        return self.weight_bytes(0, len(self.layers))

    def scaled(self, compute_factor: float) -> "ModelProfile":
        """A copy with every compute time multiplied by ``compute_factor``.

        Used to model faster/slower accelerators (e.g. 1080Ti vs. V100) from
        one canonical profile.
        """
        layers = [
            LayerProfile(
                name=l.name,
                compute_time=l.compute_time * compute_factor,
                activation_bytes=l.activation_bytes,
                weight_bytes=l.weight_bytes,
                forward_time=None if l.forward_time is None else l.forward_time * compute_factor,
                kind=l.kind,
            )
            for l in self.layers
        ]
        return ModelProfile(self.model_name, layers, self.batch_size, self.bytes_per_element)

    def with_precision(self, bytes_per_element: int) -> "ModelProfile":
        """Rescale all tensor sizes to a different element width (fp16/fp32).

        Compute time is kept unchanged: Figure 12 shows communication, not
        compute, dominates the change between precisions.  Nonzero payloads
        stay nonzero: truncating a 1-byte activation to 0 when downscaling
        would make its boundary link free for the planner.
        """
        factor = bytes_per_element / self.bytes_per_element

        def rescale(nbytes: int) -> int:
            return 0 if nbytes == 0 else max(1, round(nbytes * factor))

        layers = [
            LayerProfile(
                name=l.name,
                compute_time=l.compute_time,
                activation_bytes=rescale(l.activation_bytes),
                weight_bytes=rescale(l.weight_bytes),
                forward_time=l.forward_time,
                kind=l.kind,
            )
            for l in self.layers
        ]
        return ModelProfile(self.model_name, layers, self.batch_size, bytes_per_element)

    def digest(self) -> str:
        """Content hash of the profile — the canonical cache-key component.

        Two profiles with equal layer values, batch size, and element width
        share a digest regardless of object identity or provenance (an
        analytic build and a client-submitted JSON copy key the same cache
        entries).  Computed once per instance; profiles are treated as
        immutable everywhere in this repo (``scaled``/``with_precision``
        return copies), so memoization is safe.
        """
        if self._digest is None:
            canonical = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            self._digest = hashlib.sha256(canonical.encode()).hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    # Serialization (profiles are artifacts of the profiling step)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "model_name": self.model_name,
            "batch_size": self.batch_size,
            "bytes_per_element": self.bytes_per_element,
            "layers": [asdict(l) for l in self.layers],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: Dict) -> "ModelProfile":
        layers = [LayerProfile(**l) for l in data["layers"]]
        return cls(
            data["model_name"],
            layers,
            data["batch_size"],
            data.get("bytes_per_element", 4),
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelProfile":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"ModelProfile({self.model_name!r}, {len(self.layers)} layers, "
            f"B={self.batch_size}, T={self.total_compute_time:.4f}s, "
            f"W={self.total_weight_bytes / 1e6:.1f}MB)"
        )
