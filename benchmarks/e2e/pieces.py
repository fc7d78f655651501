"""The strategy drivers of ``repro.sim.strategies``, replayed as pieces.

A traced round runs each composite call (``simulate_partition`` and
friends) and then the same work again as the public functions the
composite is made of — schedule build, then ``simulate`` on the prebuilt
schedule — each under its own span.  That is how the schedule layer and
the event engine get separate numbers without any span inside ``src/``.
Each function returns a :class:`Replay`; callers compare its result with
the composite's, so drift between the two shows as a failure.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Sequence

from repro.api import Stage
from repro.core.profile import LayerProfile, ModelProfile
from repro.core.schedule import (
    data_parallel_schedule,
    gpipe_schedule,
    model_parallel_schedule,
    one_f_one_b_rr_schedule,
    schedule_for_family,
)
from repro.sim import SimOptions, simulate

from common import Tracer


class Replay(NamedTuple):
    schedule_ops: int
    result: Any  # SimResult
    build_s: float
    simulate_s: float


def _run(tracer: Tracer, label: str, build, profile, topology,
         options) -> Replay:
    with tracer.span("core.schedule", "build", op=label) as built:
        schedule = build()
    with tracer.span("sim.executor", "simulate", op=label) as ran:
        result = simulate(schedule, profile, topology, options)
    ops = sum(len(ops) for ops in schedule.worker_ops.values())
    return Replay(ops, result, built.seconds, ran.seconds)


def partition(tracer: Tracer, label: str, profile: ModelProfile, topology,
              stages: Sequence[Stage], minibatches: int, *,
              noam: Optional[int] = None, faults=None,
              bucket_bytes: Optional[float] = None,
              schedule_family: str = "1f1b"):
    """``simulate_partition`` as schedule build + simulate."""
    return _run(
        tracer, label,
        lambda: schedule_for_family(
            one_f_one_b_rr_schedule(list(stages), minibatches, noam=noam),
            schedule_family),
        profile, topology,
        SimOptions(sync_mode="pipedream", faults=faults,
                   bucket_bytes=bucket_bytes),
    )


def data_parallel(tracer: Tracer, label: str, profile: ModelProfile,
                  topology, minibatches: int, *,
                  bucket_bytes: Optional[float] = None):
    """``simulate_data_parallel`` as schedule build + simulate."""
    return _run(
        tracer, label,
        lambda: data_parallel_schedule(topology.total_workers, minibatches,
                                       num_layers=len(profile)),
        profile, topology,
        SimOptions(sync_mode="bsp", bucket_bytes=bucket_bytes),
    )


def model_parallel(tracer: Tracer, label: str, profile: ModelProfile,
                   topology, stages: Sequence[Stage], minibatches: int, *,
                   bucket_bytes: Optional[float] = None):
    """``simulate_model_parallel`` as schedule build + simulate."""
    return _run(
        tracer, label,
        lambda: model_parallel_schedule(
            len(stages), minibatches,
            layer_bounds=[(s.start, s.stop) for s in stages]),
        profile, topology,
        SimOptions(sync_mode="pipedream", bucket_bytes=bucket_bytes),
    )


def gpipe(tracer: Tracer, label: str, profile: ModelProfile, topology,
          stages: Sequence[Stage], batches: int, microbatches: int = 4, *,
          bucket_bytes: Optional[float] = None):
    """``simulate_gpipe`` (with its default recomputation) as pieces.

    A microbatch is 1/m of a minibatch: compute and activations scale
    down, weights do not.
    """
    factor = 1.0 / microbatches
    micro = ModelProfile(
        profile.model_name,
        [LayerProfile(
            name=l.name,
            compute_time=l.compute_time * factor,
            activation_bytes=max(1, int(l.activation_bytes * factor)),
            weight_bytes=l.weight_bytes,
            forward_time=(None if l.forward_time is None
                          else l.forward_time * factor),
            kind=l.kind,
        ) for l in profile.layers],
        max(1, int(round(profile.batch_size * factor))),
        profile.bytes_per_element,
    )
    return _run(
        tracer, label,
        lambda: gpipe_schedule(
            len(stages), batches, microbatches,
            layer_bounds=[(s.start, s.stop) for s in stages]),
        micro, topology,
        SimOptions(sync_mode="gpipe", recompute_activations=True,
                   microbatches_per_batch=microbatches,
                   bucket_bytes=bucket_bytes),
    )
