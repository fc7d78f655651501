"""The measured profiler: time each layer of an executable model.

Mirrors the paper's profiling step (§3.1): run a short sampling workload on
a single device and record, per layer, the forward+backward compute time
``T_l``, the output activation size ``a_l``, and the weight size ``w_l``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List

import numpy as np

from repro.autodiff.engine import Tensor
from repro.core.profile import LayerProfile, ModelProfile

if TYPE_CHECKING:  # pragma: no cover — avoids a models<->profiler cycle
    from repro.models.base import LayeredModel


def _detached_input(x):
    """Fresh grad-collecting wrappers so each layer's backward is isolated."""
    if isinstance(x, tuple):
        return tuple(_detached_input(e) for e in x)
    if isinstance(x, Tensor):
        return Tensor(x.data, requires_grad=True)
    return x  # integer token inputs (embedding layers)


def _seed_backward(out, rng) -> None:
    if isinstance(out, tuple):
        for element in out:
            if isinstance(element, Tensor) and element.requires_grad:
                element.backward(rng.standard_normal(element.shape))
        return
    out.backward(rng.standard_normal(out.shape))


def _payload_nbytes(out) -> int:
    if isinstance(out, tuple):
        return sum(_payload_nbytes(e) for e in out)
    return out.nbytes


def _detach_payload(out):
    if isinstance(out, tuple):
        return tuple(_detach_payload(e) for e in out)
    return out.detach() if isinstance(out, Tensor) else out


def profile_model(
    model: "LayeredModel",
    sample_batch,
    num_iterations: int = 3,
    warmup: int = 1,
) -> ModelProfile:
    """Profile ``model`` layer by layer with the given input minibatch.

    Each layer's forward is timed in sequence (consuming the previous
    layer's real output); its backward is timed by seeding a random output
    gradient, isolating that layer's tape segment.  Times are averaged over
    ``num_iterations`` runs after ``warmup`` discarded runs.
    """
    if isinstance(sample_batch, tuple):
        batch_size = np.asarray(sample_batch[0]).shape[0]
    elif isinstance(sample_batch, Tensor):
        batch_size = sample_batch.shape[0]
    else:
        sample_batch = np.asarray(sample_batch)
        batch_size = sample_batch.shape[0]

    rng = np.random.default_rng(0)
    forward_times = np.zeros(model.num_layers)
    backward_times = np.zeros(model.num_layers)
    activation_bytes: List[int] = [0] * model.num_layers
    weight_bytes: List[int] = [0] * model.num_layers

    for iteration in range(warmup + num_iterations):
        record = iteration >= warmup
        x = model.wrap_input(sample_batch)
        for index, name in enumerate(model.layer_names):
            module = model.layer(index)
            layer_in = _detached_input(x)

            start = time.perf_counter()
            out = module(layer_in)
            fwd = time.perf_counter() - start

            start = time.perf_counter()
            _seed_backward(out, rng)
            bwd = time.perf_counter() - start
            module.zero_grad()

            if record:
                forward_times[index] += fwd
                backward_times[index] += bwd
                activation_bytes[index] = _payload_nbytes(out)
                weight_bytes[index] = module.parameter_bytes()
            x = _detach_payload(out)

    forward_times /= num_iterations
    backward_times /= num_iterations

    from repro.models.base import _kind_of

    layers = [
        LayerProfile(
            name=name,
            compute_time=float(forward_times[i] + backward_times[i]),
            activation_bytes=activation_bytes[i],
            weight_bytes=weight_bytes[i],
            forward_time=float(forward_times[i]),
            kind=_kind_of(model.layer(i)),
        )
        for i, name in enumerate(model.layer_names)
    ]
    # The element width is read off the parameters themselves (the engine
    # runs float64 today, so this is 8) rather than hardcoded: downstream
    # payload sizing — ``with_precision`` rescaling, all_reduce volumes —
    # divides the byte counts above by this number, so the two must come
    # from the same dtype or fp16 what-if sweeps silently mis-scale.  A
    # model with no parameters has no dtype to read; fall back to the
    # analytic profiler's fp32 default so the two profilers agree on
    # allreduce sizing for identical models.
    itemsizes = {
        int(p.data.dtype.itemsize)
        for i in range(model.num_layers)
        for p in model.layer(i).parameters()
    }
    bytes_per_element = max(itemsizes) if itemsizes else 4
    return ModelProfile(model.model_name, layers, batch_size=batch_size,
                        bytes_per_element=bytes_per_element)
