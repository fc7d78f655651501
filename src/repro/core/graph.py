"""Layer graphs: the unit of work the partitioner operates over.

PipeDream treats a DNN as an ordered sequence of layers (groups of
consecutive operators); a *stage* is a contiguous slice of this sequence.
:class:`LayerSpec` carries enough metadata to (a) build the executable
module, and (b) drive the analytic profiler when the model is too large to
execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LayerSpec:
    """Description of one layer in a model's layer graph.

    Attributes:
        name: Unique human-readable layer name (e.g. ``"conv1_1"``).
        kind: Operator family — one of ``"conv"``, ``"fc"``, ``"lstm"``,
            ``"embedding"``, ``"pool"``, ``"norm"``, ``"act"``, ``"flatten"``,
            ``"dropout"``, ``"other"``.
        param_count: Number of trainable scalars in the layer.
        output_elements: Number of output activation scalars *per sample*.
        flops: Forward multiply-accumulate count per sample (backward is
            modelled as a multiple of this; see the profiler).
        builder: Optional zero-argument callable producing the executable
            :class:`repro.nn.Module` for scaled-down models.
    """

    name: str
    kind: str
    param_count: int
    output_elements: int
    flops: int
    builder: Optional[Callable] = field(default=None, compare=False, repr=False)

    def build(self):
        if self.builder is None:
            raise ValueError(f"layer {self.name!r} has no executable builder")
        return self.builder()


class LayerGraph:
    """An ordered sequence of layers, sliceable into contiguous stages."""

    def __init__(self, name: str, layers: Sequence[LayerSpec]):
        if not layers:
            raise ValueError("a layer graph needs at least one layer")
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        self.name = name
        self.layers: List[LayerSpec] = list(layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return LayerGraph(f"{self.name}[{index.start}:{index.stop}]", self.layers[index])
        return self.layers[index]

    def index_of(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(name)

    @property
    def total_params(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    def slice_params(self, start: int, stop: int) -> int:
        """Parameter count of layers ``start..stop-1``."""
        return sum(layer.param_count for layer in self.layers[start:stop])

    def stage_names(self, boundaries: Sequence[Tuple[int, int]]) -> List[str]:
        """Human-readable span names for (start, stop) stage boundaries."""
        spans = []
        for start, stop in boundaries:
            spans.append(f"{self.layers[start].name}..{self.layers[stop - 1].name}")
        return spans

    def __repr__(self) -> str:
        return f"LayerGraph({self.name!r}, {len(self.layers)} layers)"
