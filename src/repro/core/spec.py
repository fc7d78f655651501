"""A scenario as two values, and the one table of the fields that build them.

PipeDream's optimizer is re-run per configuration, and every surface that
re-runs it (:class:`~repro.core.partition.PipeDreamOptimizer`, the
simulation drivers, the sweep grid, the CLI, the planner service) builds
one :class:`PlanSpec` and reads it.  ``__post_init__`` is the only place
the six options are coerced, normalised and rejected; :meth:`PlanSpec.key`
is the only omit-when-default rule.  :class:`SimSpec` is the same contract
for the simulate side (strategy, run length, schedule family, faults), and
:func:`check_scenario` is the one rule that joins the two.  Precision is a
property of the profile, so it lives in neither.

:data:`FIELDS` is the input schema of every surface: one :class:`Field`
row per plan, sim, topology and sweep-grid field.  ``repro.cli`` generates
its arguments from it and ``repro.serve`` reads its request keys through
it, so argv and JSON take the same types, bounds, choices and defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.core.profile import PRECISION_BYTES
from repro.core.sharding import validate_tp_degrees
from repro.core.topology import CLUSTERS, MAX_WORKERS
from repro.profiler.analytic import ANALYTIC_MODELS, DEVICE_PEAK_FLOPS

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.faults import FaultSchedule

#: The training strategies of the paper's evaluation (§5), in the sweep's
#: column order; ``repro.sim.strategies.simulate_stages`` runs each one.
STRATEGY_NAMES = ("dp", "pipedream", "mp", "gpipe")

#: The longest run any surface simulates: ~10x the longest run a test,
#: probe or figure uses (1 024 minibatches); a run's cost grows linearly.
MAX_MINIBATCHES = 10_000

#: The default of a field that must be given.
REQUIRED = object()

#: JSON types a value of each kind may arrive as (``bool`` is not a number).
_JSON_TYPES = {bool: bool, int: (int, float), float: (int, float), str: str,
               dict: dict}


@dataclass(frozen=True)
class Field:
    """One input field, as every surface reads it.

    ``name`` is the JSON key and, spelled ``--name-with-dashes``, the CLI
    flag (``flag`` overrides it: ``"--workers"``, or a positional's bare
    name).  A ``many`` field is a non-empty list of ``kind`` values, whose
    ``nullable`` elements may be ``None`` (JSON ``null``, argv ``none`` or
    ``off``).  ``lo`` / ``hi`` bound an int; ``choices`` is anything ``in``
    works on.  A ``raw`` list's JSON elements are left to the value that
    owns their rule (``tp_degrees``: :func:`validate_tp_degrees`).  Rules
    beyond type, shape, bounds and choices live in the values the fields
    build (:class:`PlanSpec`, :class:`SimSpec`, ``Topology``).
    """

    name: str
    kind: type
    default: Any = None
    help: str = ""
    many: bool = False
    nullable: bool = False
    lo: Optional[int] = None
    hi: Optional[int] = None
    choices: Any = None
    raw: bool = False
    flag: Optional[str] = None

    def read(self, value: Any) -> Any:
        """A JSON value coerced and checked; ``None`` (absent or null) is
        :attr:`default`.  An int is a JSON integer or an integral finite
        number: ``2.7``, ``1e400`` (``inf``), ``true`` and ``"4"`` are
        refused rather than truncated, overflowed or parsed.  Raises a
        ``ValueError`` naming the field."""
        if value is None:
            if self.default is REQUIRED:
                raise ValueError(f"{self.name} is required")
            return self.default
        if not self.many:
            return self._one(value)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"bad {self.name} {value!r}: expected a list")
        if not value:
            raise ValueError(f"{self.name} must be a non-empty list")
        return tuple(value) if self.raw else tuple(map(self._one, value))

    def parse(self, text: str) -> Any:
        """One argv word, converted by :attr:`kind` and then read as a JSON
        value would be: a word that does not convert is refused the same
        way, naming the field."""
        if self.nullable and text.lower() in ("none", "off"):
            return None
        try:
            value = self.kind(text)
        except ValueError:
            value = text  # not of its kind: refused below, naming the field
        return self._one(value)

    def _one(self, value: Any) -> Any:
        kind = self.kind
        if type(value) is not kind:  # the common case skips this
            if value is None and self.nullable:
                return None
            try:
                if (isinstance(value, bool) != (kind is bool)
                        or not isinstance(value, _JSON_TYPES[kind])
                        or kind is int and not float(value).is_integer()):
                    raise ValueError(value)
                value = kind(value)
            except (ValueError, OverflowError):
                raise ValueError(f"bad {self.name} {value!r}: "
                                 f"expected {kind.__name__}") from None
        if self.lo is not None and value < self.lo:
            raise ValueError(
                f"{self.name} must be an int >= {self.lo}, got {value!r}")
        if self.hi is not None and value > self.hi:
            raise ValueError(
                f"{self.name} must be an int <= {self.hi}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"unknown {self.name} {value!r} "
                             f"(have {sorted(self.choices)})")
        return value


_FAULTS_HELP = (
    "fault spec: 'crash@T:wK', 'slow@T:wK:xF:dD', 'bw@T:xF:dD[:wK][:lL]' "
    "(comma-joined), or 'seed=N[:crashes=..][:stragglers=..]"
    "[:degradations=..][:horizon=..]'; a crash runs the elastic recovery")

#: Every input field, by name: the profile, the topology (named cluster or
#: inline levels), the PlanSpec and SimSpec fields, and the sweep grid.
FIELDS: Dict[str, Field] = {field.name: field for field in (
    Field("model", str, REQUIRED, "paper model", choices=ANALYTIC_MODELS,
          flag="model"),
    Field("profile", dict, None, "inline ModelProfile.to_dict() profile"),
    Field("device", str, "v100", "device profiled", choices=DEVICE_PEAK_FLOPS),
    Field("precision", str, "fp32", "element width", choices=PRECISION_BYTES),
    Field("cluster", str, "a", "Table 2 cluster", choices=CLUSTERS),
    Field("servers", int, 4, "servers of the cluster", lo=1,
          hi=MAX_WORKERS),
    Field("topology", dict, None, "inline topology_to_dict() topology"),
    Field("num_workers", int, None, "plan on the first N workers only", lo=1,
          hi=MAX_WORKERS, flag="--workers"),
    Field("compute_scale", float, 1.0, "device speed (1.0 = a V100)"),
    Field("count", int, REQUIRED, "children per level", lo=1, hi=MAX_WORKERS),
    Field("bandwidth", float, REQUIRED, "link bytes/s"),
    Field("allreduce_efficiency", float, 1.0, "all_reduce share of line rate"),
    Field("allreduce_latency", float, 0.0, "seconds per collective"),
    Field("memory_limit_bytes", float, None, "per-worker memory cap (§3.3)"),
    Field("allow_replication", bool, True, "false: one worker per stage"),
    Field("memory_refine", bool, True, "false: bound-only reference mode"),
    Field("bucket_bytes", float, None, "gradient-fusion cap in bytes: "
          "bucketed, backward-overlapped weight sync (default: one "
          "monolithic per-round payload)"),
    Field("recompute", str, None, "'auto' lets the planner turn activation "
          "checkpointing on per stage when the memory cap demands it"),
    Field("tp_degrees", int, None, "tensor-parallel degrees the planner may "
          "assign per stage (e.g. 1 2 4)", many=True, raw=True),
    Field("strategy", str, "pipedream", "strategy", choices=STRATEGY_NAMES),
    Field("minibatches", int, 48, "run length in minibatches (gpipe: "
          "batches of 4 microbatches); a sweep's pipedream cells run it "
          "and its dp / mp / gpipe cells grid_minibatches(strategy, it)",
          lo=1, hi=MAX_MINIBATCHES),
    Field("schedule_family", str, "1f1b", "pipeline schedule family: 1f1b "
          "or the backward-split 2bp (pipedream strategy only)"),
    Field("faults", str, "", _FAULTS_HELP),
    Field("models", str, REQUIRED, "paper models", many=True,
          choices=ANALYTIC_MODELS, flag="models"),
    Field("counts", int, (4, 8, 16), "worker counts", many=True, lo=1,
          hi=MAX_WORKERS),
    Field("strategies", str, ("dp", "pipedream"), "strategies", many=True,
          choices=STRATEGY_NAMES),
    Field("precisions", str, ("fp32",), "element widths", many=True,
          choices=PRECISION_BYTES),
    Field("bucket_sizes", float, (None,), "fusion caps ('none' = off)",
          many=True, nullable=True),
    Field("recomputes", str, (None,), "recompute policies ('none' = off)",
          many=True, nullable=True),
    Field("schedule_families", str, ("1f1b",), "schedule families", many=True),
)}
DEFAULTS = {name: field.default for name, field in FIELDS.items()}

#: The keys of an inline topology and of each of its levels.
TOPOLOGY_KEYS = ("name", "compute_scale", "levels")
LEVEL_FIELDS = ("count", "bandwidth", "allreduce_efficiency",
                "allreduce_latency")
SIM_FIELDS = ("strategy", "minibatches", "schedule_family")
#: ``run_sweep``'s keyword options, as a sweep request gives them.
SWEEP_OPTIONS = ("strategies", "device", "minibatches", "precisions",
                 "bucket_sizes", "recomputes", "schedule_families",
                 "memory_limit_bytes", "tp_degrees")


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
PLAN_FIELDS = tuple(name for name, _ in _DEFAULTS)
_WHERE = ("cluster", "servers", "topology")
_PLAN_REQUEST = (("model", "profile", "device", "precision", "num_workers")
                 + _WHERE + PLAN_FIELDS)
#: The keys each service endpoint accepts.
REQUEST_FIELDS = {
    "plan": frozenset(_PLAN_REQUEST),
    "simulate": frozenset(_PLAN_REQUEST + SIM_FIELDS),
    "sweep": frozenset(("models", "counts") + _WHERE + SWEEP_OPTIONS),
}


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

    strategy: str = DEFAULTS["strategy"]
    minibatches: int = DEFAULTS["minibatches"]
    schedule_family: str = DEFAULTS["schedule_family"]
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
