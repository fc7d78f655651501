"""Export timelines as Chrome trace-event JSON.

Open the produced file in ``chrome://tracing`` or Perfetto.  Two sources:

- a simulation (:func:`chrome_trace_events`): forward, backward, 2BP
  grad-weight and update ops per worker, with minibatch ids as arguments
  — the tooling equivalent of the paper's Figure 4 timelines;
- :mod:`repro.utils.obs` span records (:func:`span_trace_events`): the
  planner's solve phases, which ``repro plan --trace`` writes.

Nothing here imports the engine at module level, so a plan that exports
its spans loads no simulator.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:
    from repro.sim.executor import SimResult
    from repro.utils.obs import Span


def chrome_trace_events(sim: SimResult, time_scale: float = 1e6) -> List[Dict]:
    """Convert a simulation to trace-event dicts (times in microseconds).

    Each op kind is its own category (``forward``, ``backward``,
    ``backward_w``, ``update``) and colour."""
    from repro.core.schedule import OpKind

    color = {  # Chrome trace color names
        OpKind.FORWARD: "good",
        OpKind.BACKWARD: "bad",
        OpKind.BACKWARD_W: "olive",
        OpKind.UPDATE: "grey",
    }
    events: List[Dict] = []
    workers = set()
    for worker, op, start, end in sim.raw_records:
        workers.add(worker)
        duration = (end - start) * time_scale
        if op.kind == OpKind.UPDATE and duration <= 0:
            continue  # instantaneous updates just clutter the view
        events.append({
            "name": f"{op.kind.value}{op.minibatch}",
            "cat": op.kind.name.lower(),
            "ph": "X",  # complete event
            "ts": start * time_scale,
            "dur": max(duration, 0.01),
            "pid": 0,
            "tid": worker,
            "cname": color[op.kind],
            "args": {
                "stage": op.stage,
                "minibatch": op.minibatch,
            },
        })
    # Name the rows.
    for worker in sorted(workers):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": worker,
            "args": {"name": f"worker {worker}"},
        })
    return events


def span_trace_events(spans: Sequence[Span]) -> List[Dict]:
    """One complete (``"X"``) event per span, in the spans' order.

    Times are microseconds from the earliest span's start; each thread
    the spans ran on is one ``tid`` (0, 1, … in order of first
    appearance); ``args`` holds the span's nesting ``depth`` and its
    attributes."""
    origin = min((span.start for span in spans), default=0.0)
    tids: Dict[int, int] = {}
    return [{
        "name": span.name,
        "cat": "span",
        "ph": "X",
        "ts": (span.start - origin) * 1e6,
        "dur": span.seconds * 1e6,
        "pid": 0,
        "tid": tids.setdefault(span.thread, len(tids)),
        "args": {"depth": span.depth, **span.attrs},
    } for span in spans]


def export_chrome_trace(sim: SimResult, path: str, time_scale: float = 1e6) -> str:
    """Write the trace to ``path``; returns the path for convenience."""
    with open(path, "w") as f:
        json.dump({"traceEvents": chrome_trace_events(sim, time_scale)}, f)
    return path
