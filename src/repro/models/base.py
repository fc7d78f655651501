"""LayeredModel: the partitionable model abstraction.

A layered model is an ordered sequence of named modules; running them in
order is the forward pass.  PipeDream stages are contiguous slices of this
sequence, so the model also knows how to materialize a stage as a single
:class:`~repro.nn.Sequential` and how to trace itself into a
:class:`~repro.core.graph.LayerGraph` carrying per-layer parameter counts,
activation sizes, and FLOP estimates.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.autodiff.engine import Tensor
from repro.core.graph import LayerGraph, LayerSpec
from repro.nn.module import Module, Sequential
from repro.profiler.flops import flops_of


class LayeredModel(Module):
    """A model expressed as an ordered list of partitionable layers.

    Args:
        name: model identifier (e.g. ``"vgg-small"``).
        layers: ``(layer_name, module)`` pairs in execution order.
        input_kind: ``"float"`` for dense inputs, ``"int"`` for token ids —
            the runtime uses this to type stage boundary tensors.
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[Tuple[str, Module]],
        input_kind: str = "float",
    ):
        super().__init__()
        if not layers:
            raise ValueError("model needs at least one layer")
        self.model_name = name
        self.layer_names: List[str] = []
        self.input_kind = input_kind
        for layer_name, module in layers:
            if layer_name in self.layer_names:
                raise ValueError(f"duplicate layer name {layer_name!r}")
            setattr(self, layer_name, module)
            self.layer_names.append(layer_name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layer_names)

    def layer(self, index: int) -> Module:
        return self._modules[self.layer_names[index]]

    def wrap_input(self, x):
        """Coerce a raw numpy batch to the tensor type the model expects.

        Float inputs become :class:`Tensor`; integer token-id inputs stay as
        plain arrays (embedding layers take raw indices).
        """
        if isinstance(x, (tuple, Tensor)) or self.input_kind in ("int", "tuple"):
            return x
        return Tensor(np.asarray(x))

    def forward(self, x):
        x = self.wrap_input(x)
        for name in self.layer_names:
            x = self._modules[name](x)
        return x

    def forward_range(self, x, start: int, stop: int):
        """Run layers ``start..stop-1`` only (a stage's forward pass)."""
        if start == 0:
            x = self.wrap_input(x)
        for name in self.layer_names[start:stop]:
            x = self._modules[name](x)
        return x

    def stage_module(self, start: int, stop: int) -> Sequential:
        """The contiguous slice of layers as one module (shared params)."""
        return Sequential(*(self._modules[n] for n in self.layer_names[start:stop]))

    # ------------------------------------------------------------------
    # Tracing into a layer graph
    # ------------------------------------------------------------------
    def layer_graph(self, sample_input) -> LayerGraph:
        """Trace one sample through the model, recording per-layer stats.

        ``sample_input`` should have batch size 1 so ``output_elements`` and
        ``flops`` are per-sample quantities.
        """
        def payload_elements(value) -> int:
            if isinstance(value, tuple):
                return sum(payload_elements(v) for v in value)
            return int(np.prod(np.asarray(value.data if isinstance(value, Tensor) else value).shape))

        def payload_shape(value):
            if isinstance(value, tuple):
                return payload_shape(value[0])
            return value.shape if hasattr(value, "shape") else np.asarray(value).shape

        x = self.wrap_input(sample_input)
        specs: List[LayerSpec] = []
        for index, name in enumerate(self.layer_names):
            module = self._modules[name]
            in_shape = payload_shape(x)
            x = module(x)
            out_elements = payload_elements(x)
            params = module.num_parameters()
            kind = _kind_of(module)
            specs.append(
                LayerSpec(
                    name=name,
                    kind=kind,
                    param_count=params,
                    output_elements=out_elements,
                    flops=flops_of(module, in_shape, payload_shape(x)),
                    builder=(lambda m=module: m),
                )
            )
        return LayerGraph(self.model_name, specs)

    def __repr__(self) -> str:
        return f"LayeredModel({self.model_name!r}, {self.num_layers} layers)"


def _kind_of(module: Module) -> str:
    from repro.nn import attention as A
    from repro.nn import layers as L
    from repro.nn import rnn as R

    if isinstance(module, L.Conv2d):
        return "conv"
    if isinstance(module, (A.MultiHeadSelfAttention, A.TransformerEncoderLayer)):
        return "attention"
    if isinstance(module, A.LayerNorm):
        return "norm"
    if isinstance(module, L.Linear):
        return "fc"
    if isinstance(module, (R.LSTM, R.LSTMCell)):
        return "lstm"
    if isinstance(module, L.Embedding):
        return "embedding"
    if hasattr(module, "tokens") and isinstance(getattr(module, "tokens"), L.Embedding):
        return "embedding"  # token+position composite
    if isinstance(module, (L.MaxPool2d, L.AvgPool2d, L.GlobalAvgPool2d)):
        return "pool"
    if isinstance(module, L.BatchNorm2d):
        return "norm"
    if isinstance(module, (L.ReLU, L.Tanh, L.Sigmoid)):
        return "act"
    if isinstance(module, L.Dropout):
        return "dropout"
    if isinstance(module, L.Flatten):
        return "flatten"
    if isinstance(module, Sequential):
        # Composite blocks (e.g. a conv+bn+relu block or residual block):
        # classify by the dominant child.
        for child in module:
            kind = _kind_of(child)
            if kind in ("conv", "fc", "lstm", "embedding"):
                return kind
        return "other"
    return "other"
