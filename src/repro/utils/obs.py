"""Nestable timing spans and the one module-level registry that keeps them.

    from repro.utils import obs

    obs.enable()
    with obs.span("solve", workers=64):
        with obs.span("levels"):
            ...
    obs.registry.spans   # [Span(name, depth, start, seconds, attrs), ...]
    obs.totals()         # {"solve": seconds, "levels": seconds}
    obs.disable()

Disabled (the default), :func:`span` checks one flag and returns a shared
no-op context manager: nothing is recorded and nothing is allocated.
Enabled, each span appends one :class:`Span` record when it closes, in
closing order; ``depth`` counts the spans open around it on the same
thread, so concurrent solves nest independently.  Standard library only.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, NamedTuple


class Span(NamedTuple):
    """One closed span: ``start`` is ``time.perf_counter()`` at entry."""

    name: str
    depth: int
    start: float
    seconds: float
    attrs: Dict[str, Any]


class Registry:
    """Where closed spans go; ``enabled`` is the flag :func:`span` reads."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()


class _Open:
    """An open span (the context manager :func:`span` returns enabled)."""

    __slots__ = ("registry", "name", "attrs", "depth", "start")

    def __init__(self, registry: Registry, name: str, attrs: Dict[str, Any]):
        self.registry, self.name, self.attrs = registry, name, attrs

    def __enter__(self) -> "_Open":
        local = self.registry._local
        self.depth = getattr(local, "depth", 0)
        local.depth = self.depth + 1
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        seconds = time.perf_counter() - self.start
        self.registry._local.depth = self.depth
        self.registry.spans.append(
            Span(self.name, self.depth, self.start, seconds, self.attrs))


#: The process-wide registry every :func:`span` writes to.
registry = Registry()
_NULL = nullcontext()


def span(name: str, **attrs: Any):
    """A context manager timing ``name`` into :data:`registry` — or, while
    the registry is disabled, a shared no-op."""
    if not registry.enabled:
        return _NULL
    return _Open(registry, name, attrs)


def enable() -> None:
    """Start recording (spans already recorded are kept)."""
    registry.enabled = True


def disable() -> None:
    """Stop recording (spans already recorded are kept)."""
    registry.enabled = False


def reset() -> None:
    """Forget every recorded span."""
    registry.spans.clear()


def totals() -> Dict[str, float]:
    """Summed seconds per span name, in first-closing order."""
    out: Dict[str, float] = {}
    for record in registry.spans:
        out[record.name] = out.get(record.name, 0.0) + record.seconds
    return out
