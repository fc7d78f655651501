"""Deterministic fault injection for the simulated cluster.

A :class:`FaultSchedule` is an immutable, sorted set of
:class:`FaultEvent`\\ s pinned to *simulated* timestamps.  Three kinds:

``crash``
    Worker dies at ``time``.  The simulator halts the global timeline at
    that instant — ops already started finish, nothing starts at or
    after it — and reports it as ``SimResult.halted_at``.  Recovery
    (detection, re-planning, checkpoint resume) is the elastic control
    loop's job (:mod:`repro.runtime.elastic`), not the simulator's.

``straggler``
    Worker computes at ``1/factor`` speed inside the window
    ``[time, time + duration)``.  Op durations are integrated piecewise
    across window boundaries, so an op spanning a window edge slows down
    only for the overlapping portion.

``bandwidth``
    Point-to-point transfers *beginning* inside the window are slowed by
    ``factor``.  Targetable at one endpoint (``worker``) and/or one
    topology level (``level``); the defaults hit every link.

Determinism contract: a schedule is a value (frozen events under a total
order), :meth:`FaultSchedule.generate` is a pure function of its seed,
and an *empty* schedule is structurally invisible — the simulator
normalizes it to ``None`` and takes the exact fault-free code paths, so
the timeline is bitwise-identical to a run without the feature
(asserted across every engine-equivalence scenario by
``tests/test_faults.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

FAULT_KINDS = ("crash", "straggler", "bandwidth")
_KIND_ORDER = {kind: i for i, kind in enumerate(FAULT_KINDS)}
#: Spec-grammar aliases accepted by :func:`parse_faults`.
_KIND_ALIASES = {
    "crash": "crash",
    "straggler": "straggler",
    "slow": "straggler",
    "bandwidth": "bandwidth",
    "bw": "bandwidth",
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault.  ``worker = -1`` / ``level = -1`` mean "any"."""

    kind: str
    time: float
    worker: int = -1
    duration: float = 0.0
    factor: float = 1.0
    level: int = -1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        # Written so NaN fails every check; +inf is a legal duration (a
        # window that lasts to the end of the run).
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"fault time must be finite and >= 0, got {self.time}")
        if self.kind == "crash":
            if self.worker < 0:
                raise ValueError("crash events need a target worker")
        else:
            if not self.duration > 0:
                raise ValueError(
                    f"{self.kind} events need a positive duration, got {self.duration}"
                )
            if not (math.isfinite(self.factor) and self.factor >= 1.0):
                raise ValueError(
                    f"{self.kind} factor must be finite and >= 1 (a slowdown), "
                    f"got {self.factor}"
                )
        if self.kind == "straggler" and self.worker < 0:
            raise ValueError("straggler events need a target worker")

    @property
    def end(self) -> float:
        return self.time + self.duration

    def sort_key(self) -> Tuple[float, int, int, float, float, int]:
        return (self.time, _KIND_ORDER[self.kind], self.worker,
                self.duration, self.factor, self.level)


class FaultSchedule:
    """An immutable, totally-ordered collection of fault events.

    Equality, hashing, and :meth:`signature` all derive from the sorted
    event tuple, so two schedules built from the same events (in any
    order) are interchangeable values — the basis of the seeded
    reproducibility tests.
    """

    __slots__ = ("events", "seed", "halt_time", "_windows", "_bw_events")

    def __init__(self, events: Iterable[FaultEvent] = (), seed: Optional[int] = None):
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=FaultEvent.sort_key)
        )
        self.seed = seed
        crashes = [e.time for e in self.events if e.kind == "crash"]
        #: Earliest crash time, or None.  The simulator stops committing ops
        #: whose start is at or past this instant.
        self.halt_time: Optional[float] = min(crashes) if crashes else None
        self._windows: Dict[int, Tuple[Tuple[float, float, float], ...]] = {}
        self._bw_events = tuple(e for e in self.events if e.kind == "bandwidth")

    # -- value semantics ------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"FaultSchedule({list(self.events)!r}, seed={self.seed!r})"

    def signature(self) -> Tuple[Tuple, ...]:
        """Bitwise-comparable timeline fingerprint (for reproducibility
        tests and recovery-plan cache keys)."""
        return tuple(
            (e.kind, e.time, e.worker, e.duration, e.factor, e.level)
            for e in self.events
        )

    # -- queries the simulator makes ------------------------------------
    @property
    def crashes(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == "crash")

    def crashed_workers(self, before: Optional[float] = None) -> Tuple[int, ...]:
        """Workers whose crash time is <= ``before`` (all crashes if None)."""
        return tuple(
            e.worker for e in self.events
            if e.kind == "crash" and (before is None or e.time <= before)
        )

    def _windows_for(self, worker: int) -> Tuple[Tuple[float, float, float], ...]:
        cached = self._windows.get(worker)
        if cached is None:
            cached = tuple(
                (e.time, e.end, e.factor)
                for e in self.events
                if e.kind == "straggler" and e.worker in (-1, worker)
            )
            self._windows[worker] = cached
        return cached

    def compute_end(self, worker: int, start: float, busy: float) -> float:
        """End time of ``busy`` seconds of work started at ``start``,
        integrating piecewise over the worker's straggler windows.

        Outside every window work progresses at rate 1; inside a window
        at rate ``1/factor``.  Where windows overlap, the earlier-starting
        window's factor governs the overlap (windows are walked in sorted
        order with clipping).
        """
        windows = self._windows_for(worker)
        if not windows:
            return start + busy
        t = start
        remaining = busy
        for a, b, f in windows:
            if remaining <= 0.0:
                return t
            if b <= t:
                continue
            if a > t:
                gap = a - t
                if remaining <= gap:
                    return t + remaining
                t = a
                remaining -= gap
            # Inside [t, b): rate 1/f, so the window absorbs (b - t)/f
            # seconds of work.
            capacity = (b - t) / f
            if remaining <= capacity:
                return t + remaining * f
            t = b
            remaining -= capacity
        return t + remaining

    def bandwidth_factor(self, src: int, dst: int, begin: float, level: int) -> float:
        """Combined slowdown for a transfer on link (src, dst) starting at
        ``begin``; ``level`` is the topology level the link crosses.
        Factors of all matching active windows multiply."""
        factor = 1.0
        for e in self._bw_events:
            if (e.time <= begin < e.end
                    and (e.worker < 0 or e.worker == src or e.worker == dst)
                    and (e.level < 0 or e.level == level)):
                factor *= e.factor
        return factor

    # -- construction ----------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        num_workers: int,
        horizon: float,
        crashes: int = 1,
        stragglers: int = 2,
        degradations: int = 1,
        max_factor: float = 4.0,
    ) -> "FaultSchedule":
        """Draw a random schedule as a pure function of ``seed``.

        Draw order is fixed (stragglers, then degradations, then
        crashes), so the same arguments always reproduce the identical
        event tuple — the seeded chaos suite pins on this.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for _ in range(stragglers):
            worker = rng.randrange(num_workers)
            start = rng.uniform(0.0, horizon * 0.6)
            duration = rng.uniform(horizon * 0.05, horizon * 0.3)
            factor = rng.uniform(1.5, max(1.5, max_factor))
            events.append(FaultEvent("straggler", start, worker, duration, factor))
        for _ in range(degradations):
            start = rng.uniform(0.0, horizon * 0.6)
            duration = rng.uniform(horizon * 0.05, horizon * 0.3)
            factor = rng.uniform(2.0, max(2.0, max_factor))
            # -1 degrades every link; otherwise one endpoint's links.
            worker = rng.randrange(-1, num_workers)
            events.append(FaultEvent("bandwidth", start, worker, duration, factor))
        for _ in range(crashes):
            worker = rng.randrange(num_workers)
            time = rng.uniform(horizon * 0.3, horizon * 0.9)
            events.append(FaultEvent("crash", time, worker))
        return cls(events, seed=seed)


def parse_faults(
    spec: str,
    num_workers: Optional[int] = None,
    horizon: float = 1.0,
) -> FaultSchedule:
    """Parse a CLI fault spec into a :class:`FaultSchedule`.

    Two forms:

    - Explicit events, comma- or semicolon-separated::

        crash@0.5:w3
        slow@0.1:w1:x2.5:d0.2        (alias: straggler@...)
        bw@0.2:x4:d0.1[:w0][:l1]     (alias: bandwidth@...; w/l optional)

    - Seeded generation (needs the cluster size, supplied by the caller)::

        seed=42[:crashes=1][:stragglers=2][:degradations=1][:horizon=1.0]
    """
    spec = spec.strip()
    if not spec:
        return FaultSchedule()
    if spec.startswith("seed="):
        params = {"crashes": 1, "stragglers": 2, "degradations": 1}
        seed = None
        for token in spec.split(":"):
            key, _, value = token.partition("=")
            if not value:
                raise ValueError(f"bad seeded fault spec token {token!r}")
            if key == "seed":
                seed = int(value)
            elif key in params:
                params[key] = int(value)
            elif key == "horizon":
                horizon = float(value)
            else:
                raise ValueError(f"unknown seeded fault spec key {key!r}")
        if seed is None:
            raise ValueError("seeded fault spec needs seed=<int>")
        if num_workers is None:
            raise ValueError("seeded fault spec needs the cluster size")
        return FaultSchedule.generate(seed, num_workers, horizon, **params)

    events: List[FaultEvent] = []
    for chunk in spec.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, *rest = chunk.split(":")
        name, at, time_str = head.partition("@")
        kind = _KIND_ALIASES.get(name)
        if kind is None or not at:
            raise ValueError(
                f"bad fault event {chunk!r}: expected kind@time[:...] with "
                f"kind in {sorted(_KIND_ALIASES)}"
            )
        fields = {"kind": kind, "time": float(time_str)}
        for part in rest:
            if not part:
                raise ValueError(f"empty field in fault event {chunk!r}")
            tag, value = part[0], part[1:]
            try:
                if tag == "w":
                    fields["worker"] = int(value)
                elif tag == "x":
                    fields["factor"] = float(value)
                elif tag == "d":
                    fields["duration"] = float(value)
                elif tag == "l":
                    fields["level"] = int(value)
                else:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"bad field {part!r} in fault event {chunk!r}; expected "
                    "w<worker>, x<factor>, d<duration>, or l<level>"
                ) from None
        events.append(FaultEvent(**fields))
    return FaultSchedule(events)
