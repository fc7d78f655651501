"""Minimal dependency-free SVG charts for the figure benches.

The environment ships no plotting library, so this module renders line
charts directly to SVG — enough to turn each ``bench_fig*`` run into an
actual figure file.  Output is deliberately simple: one plot area, linear
axes with automatic ticks, a categorical color cycle, and a legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple
from xml.sax.saxutils import escape

PALETTE = [
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f",
    "#956cb4", "#8c613c", "#dc7ec0", "#797979",
]


def _nice_ticks(low: float, high: float, count: int = 5) -> List[float]:
    """Round tick positions covering [low, high]."""
    if high <= low:
        high = low + 1.0
    span = high - low
    raw_step = span / max(count - 1, 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for multiple in (1, 2, 2.5, 5, 10):
        step = multiple * magnitude
        if step >= raw_step:
            break
    start = math.floor(low / step) * step
    ticks = []
    value = start
    while value <= high + step * 0.5:
        ticks.append(round(value, 10))
        value += step
    return ticks


@dataclass
class Series:
    label: str
    points: List[Tuple[float, float]]


@dataclass
class LineChart:
    """A multi-series line chart with markers."""

    title: str
    x_label: str = ""
    y_label: str = ""
    width: int = 560
    height: int = 360
    series: List[Series] = field(default_factory=list)
    y_percent: bool = False

    def add_series(self, label: str, points: Sequence[Tuple[float, float]]) -> None:
        self.series.append(Series(label, [(float(x), float(y)) for x, y in points]))

    # ------------------------------------------------------------------
    def to_svg(self) -> str:
        if not self.series or all(not s.points for s in self.series):
            raise ValueError("chart has no data")
        margin_left, margin_right = 62, 140
        margin_top, margin_bottom = 42, 48
        plot_w = self.width - margin_left - margin_right
        plot_h = self.height - margin_top - margin_bottom

        xs = [x for s in self.series for x, _ in s.points]
        ys = [y for s in self.series for _, y in s.points]
        x_ticks = _nice_ticks(min(xs), max(xs))
        y_ticks = _nice_ticks(min(min(ys), 0.0), max(ys))
        x_lo, x_hi = x_ticks[0], x_ticks[-1]
        y_lo, y_hi = y_ticks[0], y_ticks[-1]

        def sx(x: float) -> float:
            return margin_left + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y: float) -> float:
            return margin_top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" font-family="sans-serif" font-size="11">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
            f'<text x="{self.width / 2}" y="20" text-anchor="middle" '
            f'font-size="14">{escape(self.title)}</text>',
        ]
        # Axes and grid.
        for tick in x_ticks:
            x = sx(tick)
            parts.append(f'<line x1="{x:.1f}" y1="{margin_top}" x2="{x:.1f}" '
                         f'y2="{margin_top + plot_h}" stroke="#e0e0e0"/>')
            parts.append(f'<text x="{x:.1f}" y="{margin_top + plot_h + 16}" '
                         f'text-anchor="middle">{tick:g}</text>')
        for tick in y_ticks:
            y = sy(tick)
            label = f"{tick:.0%}" if self.y_percent else f"{tick:g}"
            parts.append(f'<line x1="{margin_left}" y1="{y:.1f}" '
                         f'x2="{margin_left + plot_w}" y2="{y:.1f}" stroke="#e0e0e0"/>')
            parts.append(f'<text x="{margin_left - 6}" y="{y + 4:.1f}" '
                         f'text-anchor="end">{escape(label)}</text>')
        parts.append(f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" '
                     f'height="{plot_h}" fill="none" stroke="#333"/>')
        if self.x_label:
            parts.append(f'<text x="{margin_left + plot_w / 2}" '
                         f'y="{self.height - 8}" text-anchor="middle">'
                         f'{escape(self.x_label)}</text>')
        if self.y_label:
            cx, cy = 14, margin_top + plot_h / 2
            parts.append(f'<text x="{cx}" y="{cy}" text-anchor="middle" '
                         f'transform="rotate(-90 {cx} {cy})">'
                         f'{escape(self.y_label)}</text>')

        # Series.
        for i, s in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in s.points)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="2"/>')
            for x, y in s.points:
                parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" '
                             f'r="3" fill="{color}"/>')
            ly = margin_top + 14 + i * 16
            lx = margin_left + plot_w + 10
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 22}" y="{ly}">{escape(s.label)}</text>')

        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path: str) -> str:
        with open(path, "w") as f:
            f.write(self.to_svg())
        return path
