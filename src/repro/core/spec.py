"""A scenario as two values: what is planned and how it is simulated.

PipeDream's optimizer is re-run per configuration, and every surface that
re-runs it (:class:`~repro.core.partition.PipeDreamOptimizer`, the
simulation drivers, the sweep grid, the CLI, the planner service) builds
one :class:`PlanSpec` and reads it.  ``__post_init__`` is the only place
the six options are coerced, normalised and rejected; :meth:`PlanSpec.key`
is the only omit-when-default rule.  :class:`SimSpec` is the same contract
for the simulate side (strategy, run length, schedule family, faults), and
:func:`check_scenario` is the one rule that joins the two.  Precision is a
property of the profile, so it lives in neither.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.core.sharding import validate_tp_degrees

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.faults import FaultSchedule

#: The training strategies of the paper's evaluation (§5), in the sweep's
#: column order; ``repro.sim.strategies.STRATEGIES`` maps each to a driver.
STRATEGY_NAMES = ("dp", "pipedream", "mp", "gpipe")


def reject_tp_bucketing(tp_active: bool, bucket_bytes: Optional[float]) -> None:
    """Tensor parallelism x gradient bucketing is not modeled: reject it."""
    if tp_active and bucket_bytes is not None:
        raise ValueError(
            "tensor parallelism cannot be combined with bucket_bytes: "
            "bucketing of sharded gradients is not modeled")


@dataclass(frozen=True)
class PlanSpec:
    """What the planner is asked to do, beyond (profile, topology).

    Attributes:
        memory_limit_bytes: per-worker §3.3 capacity every stage of the
            plan must fit; ``None`` = uncapped.  Finite and > 0.
        allow_replication: ``False`` pins every stage to one worker (the
            straight-pipeline ablation).
        memory_refine: ``True`` re-checks candidates against the
            simulator's true footprint and runs the depth-aware refined
            DP under a cap; ``False`` is the bound-only reference mode.
        bucket_bytes: gradient-fusion granularity; ``None`` prices a
            replicated stage's sync as one payload, a value > 0
            (``inf`` = fuse everything) as per-bucket collectives.
        recompute: ``None`` never checkpoints; ``"auto"`` lets the refined
            DP checkpoint a stage when stash-everything busts the cap
            (needs ``memory_refine``; inert without a cap).
        tp_degrees: tensor-parallel degree menu the DP may assign per
            stage, normalised by :func:`validate_tp_degrees`; a menu
            holding only degree 1 is ``None`` (axis off).
    """

    memory_limit_bytes: Optional[float] = None
    allow_replication: bool = True
    memory_refine: bool = True
    bucket_bytes: Optional[float] = None
    recompute: Optional[str] = None
    tp_degrees: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        put = object.__setattr__  # frozen: normalised values go in here
        if self.memory_limit_bytes is not None:
            limit = float(self.memory_limit_bytes)
            if not 0 < limit < math.inf:
                raise ValueError(
                    f"memory_limit_bytes must be finite and > 0, got {limit}")
            put(self, "memory_limit_bytes", limit)
        if self.bucket_bytes is not None:
            bucket = float(self.bucket_bytes)
            if not bucket > 0:
                raise ValueError(f"bucket_bytes must be > 0, got {bucket}")
            put(self, "bucket_bytes", bucket)
        put(self, "allow_replication", bool(self.allow_replication))
        put(self, "memory_refine", bool(self.memory_refine))
        if self.recompute not in (None, "auto"):
            raise ValueError(
                f"recompute must be None or 'auto', got {self.recompute!r}")
        if self.recompute == "auto" and not self.memory_refine:
            raise ValueError(
                "recompute='auto' requires memory_refine: the per-stage "
                "recompute decision lives in the depth-aware refined DP")
        if self.tp_degrees is not None:
            degrees = validate_tp_degrees(self.tp_degrees)
            put(self, "tp_degrees", None if degrees == (1,) else degrees)
        reject_tp_bucketing(self.tp_degrees is not None, self.bucket_bytes)

    def options(self) -> Dict[str, Any]:
        """The fields as keyword arguments: ``PlanSpec(**spec.options())``
        is ``spec``, and ``PipeDreamOptimizer(p, t, **spec.options())``
        plans under it."""
        return {name: getattr(self, name) for name, _ in _DEFAULTS}

    def key(self) -> tuple:
        """Canonical cache-key suffix: ``(name, value)`` for every field
        that differs from its default, in field order — ``()`` for the
        default spec, distinct for distinct specs."""
        return tuple([
            (name, value) for name, default in _DEFAULTS
            if (value := getattr(self, name)) != default
        ])


_DEFAULTS = tuple((f.name, f.default) for f in dataclasses.fields(PlanSpec))


def _pipedream_only(strategy: str, fields: Sequence[str]) -> None:
    """The pipedream-only rule: only that strategy plans and only its
    schedule has bubbles to fill, so under any other strategy ``fields``
    would be priced and then ignored."""
    if strategy != "pipedream" and fields:
        raise ValueError(
            f"{', '.join(fields)} applies to the pipedream strategy only, "
            f"not to {strategy!r}")


@dataclass(frozen=True)
class SimSpec:
    """How a scenario is simulated, beyond (profile, topology, plan).

    Attributes:
        strategy: one of :data:`STRATEGY_NAMES`.
        minibatches: run length, literal for every strategy — minibatches
            for ``pipedream`` / ``dp`` / ``mp``, batches of 4 microbatches
            for ``gpipe``.  An ``int`` >= 1 (``bool`` refused).
        schedule_family: ``"1f1b"`` or the backward-split ``"2bp"``
            (pipedream only).
        faults: fault timeline injected into the run; an empty schedule is
            ``None``.
    """

    strategy: str = "pipedream"
    minibatches: int = 48
    schedule_family: str = "1f1b"
    faults: Optional["FaultSchedule"] = None

    def __post_init__(self):
        from repro.core.schedule import SCHEDULE_FAMILIES  # imports us

        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGY_NAMES}")
        count = self.minibatches
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"minibatches must be an int >= 1, got {count!r}")
        if self.schedule_family not in SCHEDULE_FAMILIES:
            raise ValueError(
                f"unknown schedule family {self.schedule_family!r}; expected "
                f"one of {SCHEDULE_FAMILIES}")
        _pipedream_only(
            self.strategy,
            () if self.schedule_family == "1f1b" else ("schedule_family",))
        if self.faults is not None and not self.faults:
            object.__setattr__(self, "faults", None)

    def key(self) -> tuple:
        """Canonical cache key: distinct for distinct specs, with the
        fault timeline entering by :meth:`FaultSchedule.signature`."""
        return (self.strategy, self.minibatches, self.schedule_family,
                None if self.faults is None else self.faults.signature())


def check_scenario(plan: PlanSpec, sim: SimSpec) -> None:
    """The plan x sim rule: a scenario whose strategy is not ``pipedream``
    reads only ``bucket_bytes`` (the simulated weight sync) from its
    :class:`PlanSpec`; any other non-default plan field is an error."""
    _pipedream_only(
        sim.strategy,
        [name for name, _ in plan.key() if name != "bucket_bytes"])
