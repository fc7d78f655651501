"""Plain-text report helpers used by the benchmark harness."""

from __future__ import annotations

from typing import Sequence

from repro.core.schedule import OpKind
from repro.sim.executor import SimResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned ASCII table (the benches print paper-style rows)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def format_timeline(sim: SimResult, time_unit: float = 1.0, width: int = 78) -> str:
    """ASCII Gantt chart of a simulated run (Figures 2/3/4/8 visuals).

    Each worker is one row.  An op's first slot prints its minibatch id
    (mod 10) and the rest print its kind: ``F`` forward, ``B`` backward
    (the grad-input half under 2BP), ``W`` 2BP grad-weight.  Idle time is
    ``.``; updates are not drawn.
    """
    if not sim.records:
        return "(empty timeline)"
    total = sim.total_time
    scale = width / total if total > 0 else 1.0
    workers = sorted({r.worker for r in sim.records})
    rows = []
    for w in workers:
        row = ["."] * width
        for record in sim.records:
            if record.worker != w or record.op.kind == OpKind.UPDATE:
                continue
            start = int(record.start * scale)
            end = max(start + 1, int(record.end * scale))
            glyph = record.op.kind.value  # "F", "B" or "W"
            for i in range(start, min(end, width)):
                row[i] = glyph if i > start else str(record.op.minibatch % 10)
        rows.append(f"worker {w}: " + "".join(row))
    return "\n".join(rows)
